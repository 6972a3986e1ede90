"""Short-packet reliability: block error probability (BLEP) models.

A packet of L information bits is coded into N channel uses of duration
T_s each and sent over a quasi-static Rayleigh channel.  The instantaneous
BLEP follows the normal approximation

    eps(g) = Q( sqrt(N / V(g)) * (C(g) - L/N) ),
    C(g) = ln(1 + g)   [nats],   V(g) = 1 - (1 + g)^-2,

which we also linearize into a three-segment form (1 / linear / 0) around
the decoding threshold eta = exp(L/N) - 1 with slope
lambda = -sqrt(N / (2 pi (exp(2L/N) - 1))).  Averaging the segmented form
against the exponential fading density has the elementary closed form
implemented by :func:`blep_average`; that closed form is the exact integral
of the segmented model, not a further approximation.

A single-exponential simplification ``1 - exp(-(eta - sqrt(pi L)/N)/gbar)``
admits clean derivatives in N and feeds every root function used by the
blocklength optimizers.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InvalidConfigError

logger = logging.getLogger(__name__)

# Largest exponent at which eta = exp(L/N) - 1 is evaluated in its plain
# form: exp(x) stays finite up to here (a double overflows past 709.78); no
# bundled spec comes near (fig11 has L/N <= 16)
_EXP_MAX = 700.0


@dataclass(frozen=True)
class LinkParams:
    """Short-packet link description.

    L           : information bits per packet (> 0)
    N           : blocklength in channel uses (integer >= 1)
    T_s         : symbol duration in seconds (> 0)
    gamma_r_bar : average received SNR, linear (> 0)
    """

    L: float = 160.0
    N: int = 80
    T_s: float = 1e-4
    gamma_r_bar: float = 10 ** 0.5

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise InvalidConfigError(f"L must be finite and > 0, got {self.L}")
        if not (math.isfinite(self.N) and int(self.N) == self.N and self.N >= 1):
            raise InvalidConfigError(f"N must be an integer >= 1, got {self.N}")
        if not (self.T_s > 0 and math.isfinite(self.T_s)):
            raise InvalidConfigError(f"T_s must be finite and > 0, got {self.T_s}")
        if not (self.gamma_r_bar > 0 and math.isfinite(self.gamma_r_bar)):
            raise InvalidConfigError(
                f"gamma_r_bar must be finite and > 0 (linear), got {self.gamma_r_bar}"
            )

    @classmethod
    def from_db(cls, L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0):
        return cls(L=L, N=N, T_s=T_s, gamma_r_bar=10 ** (gamma_r_bar_db / 10.0))

    def with_blocklength(self, N: int) -> "LinkParams":
        return replace(self, N=N)

    @property
    def tau(self) -> float:
        """Packet transmission delay N * T_s in seconds."""
        return self.N * self.T_s

    @property
    def eta(self) -> float:
        """Decoding-threshold SNR exp(L/N) - 1."""
        return float(_eta(self.L, self.N))

    @property
    def lam(self) -> float:
        """Slope of the linear BLEP segment (negative)."""
        return _lam(self.L, self.N)

    @property
    def eps_bar(self) -> float:
        """Rayleigh-averaged BLEP of this link (closed form)."""
        return blep_average(self)


def _eta(L, N):
    return np.exp(L / N) - 1.0


def _lam(L, N):
    """-sqrt(N / (2 pi (exp(2L/N) - 1))), written
    -sqrt(N / 2 pi) exp(-L/N) / sqrt(-expm1(-2L/N)) so that it stays finite
    for any L/N."""
    x = 2.0 * L / N
    return -np.sqrt(N / (2.0 * np.pi)) * np.exp(-x / 2.0) / np.sqrt(-np.expm1(-x))


def _f0(L, N):
    """The linear segment at g = 0, F(0) = 1/2 - lam eta, written as
    1/2 + sqrt(N tanh(L/(2N)) / (2 pi)) so that it stays finite where
    exp(L/N) overflows.  The band's lower knot eta + 1/(2 lam) is negative
    exactly where F(0) < 1."""
    return 0.5 + np.sqrt(N * np.tanh(L / (2.0 * N)) / (2.0 * np.pi))


def q_function(x):
    """Gaussian tail Q(x) = 0.5 erfc(x / sqrt(2)).

    The only SciPy use outside the tests, imported here so that loading the
    package does not pay for ``scipy.special``.
    """
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def blep_instantaneous(link: LinkParams, gamma_r, N=None):
    """Normal-approximation BLEP at instantaneous SNR gamma_r.

    Accepts scalars or arrays; strictly positive SNR required.
    """
    g = np.asarray(gamma_r, dtype=float)
    if np.any(g <= 0):
        raise DomainError("instantaneous SNR must be > 0")
    n = float(link.N if N is None else N)
    capacity = np.log(1.0 + g)
    dispersion = 1.0 - (1.0 + g) ** -2
    arg = np.sqrt(n / dispersion) * (capacity - link.L / n)
    out = q_function(arg)
    return float(out) if np.isscalar(gamma_r) else out


def blep_segmented(link: LinkParams, gamma_r, N=None):
    """Piecewise-linear BLEP: 1 below the linear band, 0 above it.

    The band is centred on eta with half-width -1/(2 lambda); the form is
    continuous at both knots, so it is the linear segment
    lambda (g - eta) + 1/2 clipped to [0, 1], computed in one new buffer.
    Where the lower knot is negative (F(0) < 1, see :func:`_f0`) or eta
    overflows, the same segment is evaluated as F(0) + lambda g.
    """
    g = np.asarray(gamma_r, dtype=float)
    if np.any(g <= 0):
        raise DomainError("instantaneous SNR must be > 0")
    n = float(link.N if N is None else N)
    f0 = _f0(link.L, n)
    out = np.empty_like(g)
    if f0 < 1.0 or link.L / n > _EXP_MAX:
        np.multiply(g, _lam(link.L, n), out=out)
        out += f0
    else:
        np.subtract(g, _eta(link.L, n), out=out)
        out *= _lam(link.L, n)
        out += 0.5
    np.clip(out, 0.0, 1.0, out=out)
    return float(out) if np.isscalar(gamma_r) else out


def _blocklengths(link: LinkParams, N):
    """Blocklength(s) as floats, the link's own N when None; a scalar becomes
    a numpy float, whose arithmetic is much cheaper than a 0-d array's."""
    return np.asarray(link.N if N is None else N, dtype=float)[()]


def _simplified_exponent(link: LinkParams, n):
    """eta - sqrt(pi L)/N, the exponent (times gbar) of the simplified model."""
    return _eta(link.L, n) - math.sqrt(math.pi * link.L) / n


def blep_average(link: LinkParams, N=None):
    """Average BLEP over Rayleigh fading (exponential SNR of mean gamma_r_bar).

    Exact integral of the segmented model:
        1 + gbar * lam * (exp(-(eta + 1/(2 lam))/gbar)
                          - exp(-(eta - 1/(2 lam))/gbar)),
    clamped to [0, 1].  Where the lower knot eta + 1/(2 lam) is negative,
    that is where F(0) < 1 (:func:`_f0`), the linear band starts at g = 0,
    and the integral is
        F(0) + gbar * lam * (1 - exp(-(eta - 1/(2 lam))/gbar)),
    with F(0) = 1/2 - lam eta the linear segment at 0.  Past L/N = _EXP_MAX
    eta and lam are taken at the exponent _EXP_MAX, which keeps them finite:
    both exp terms are then 0 and |lam| is about sqrt(N) exp(-700), so the
    value is F(0) on the band and 1 above it, as at the true N.
    N broadcasts; a scalar N gives a float.
    """
    n = _blocklengths(link, N)
    gbar = link.gamma_r_bar
    m = np.maximum(n, link.L / _EXP_MAX)
    eta = _eta(link.L, m)
    lam = _lam(link.L, m)
    lo = eta + 1.0 / (2.0 * lam)
    hi = eta - 1.0 / (2.0 * lam)
    tail = np.exp(-hi / gbar)
    # |lo| keeps exp finite where the lower knot is negative; those entries
    # are replaced below
    val = 1.0 + gbar * lam * (np.exp(-abs(lo) / gbar) - tail)
    f0 = _f0(link.L, n)
    band = f0 < 1.0
    if band.any() if band.ndim else band:
        val = np.where(band, f0 + gbar * lam * (1.0 - tail), val)
    return _clamp01(val, "blep_average")


def blep_average_simplified(link: LinkParams, N=None):
    """Single-exponential average BLEP 1 - exp(-(eta - sqrt(pi L)/N)/gbar).

    Slightly offset from :func:`blep_average` but with elementary
    derivatives in N; used inside every blocklength root function so the
    stationarity conditions stay consistent with the derivative formulas.
    N broadcasts; a scalar N gives a float.
    """
    n = _blocklengths(link, N)
    val = 1.0 - np.exp(-_simplified_exponent(link, n) / link.gamma_r_bar)
    return _clamp01(val, "blep_average_simplified")


def dblep_dN(link: LinkParams, N=None):
    """d/dN of the simplified average BLEP.

    (sqrt(pi L) - L exp(L/N)) exp(-(eta - sqrt(pi L)/N)/gbar) / (gbar N^2);
    negative whenever L >= pi.  Warns when L < pi since the sign (and the
    convexity arguments that rely on it) are then not guaranteed.  N
    broadcasts; a scalar N gives a float.
    """
    if link.L < math.pi:
        warnings.warn(
            f"L={link.L} < pi: sign of the blocklength derivative is not guaranteed",
            stacklevel=2,
        )
    n = _blocklengths(link, N)
    gbar = link.gamma_r_bar
    val = ((math.sqrt(math.pi * link.L) - link.L * np.exp(link.L / n))
           * np.exp(-_simplified_exponent(link, n) / gbar) / (gbar * n * n))
    return float(val) if val.ndim == 0 else val


def _clamp01(val, name: str):
    """val clipped to [0, 1]; one warning per call counts the clipped entries."""
    outside = (val < 0.0) | (val > 1.0)
    clipped = np.count_nonzero(outside) if val.ndim else int(outside)
    if clipped:
        logger.warning("%s clamped %d value(s) to [0, 1]", name, clipped)
        val = np.clip(val, 0.0, 1.0)
    return float(val) if val.ndim == 0 else val
