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
from scipy.special import erfc

from .errors import DomainError, InvalidConfigError

logger = logging.getLogger(__name__)

DEFAULT_N_MIN = 10


@dataclass(frozen=True)
class LinkParams:
    """Short-packet link description.

    L           : information bits per packet (> 0)
    N           : blocklength in channel uses (integer >= N_min)
    T_s         : symbol duration in seconds (> 0)
    gamma_r_bar : average received SNR, linear (> 0)
    N_min       : smallest usable blocklength (default 10 channel uses)
    """

    L: float = 160.0
    N: int = 80
    T_s: float = 1e-4
    gamma_r_bar: float = 10 ** 0.5
    N_min: int = DEFAULT_N_MIN

    def __post_init__(self):
        if not self.L > 0:
            raise InvalidConfigError(f"L must be > 0, got {self.L}")
        if int(self.N) != self.N or self.N < self.N_min:
            raise InvalidConfigError(
                f"N must be an integer >= N_min={self.N_min}, got {self.N}"
            )
        if not self.T_s > 0:
            raise InvalidConfigError(f"T_s must be > 0, got {self.T_s}")
        if not self.gamma_r_bar > 0:
            raise InvalidConfigError(
                f"gamma_r_bar must be > 0 (linear), got {self.gamma_r_bar}"
            )

    @classmethod
    def from_db(cls, L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0, N_min=DEFAULT_N_MIN):
        return cls(L=L, N=N, T_s=T_s, gamma_r_bar=10 ** (gamma_r_bar_db / 10.0),
                   N_min=N_min)

    def with_blocklength(self, N: int) -> "LinkParams":
        return replace(self, N=N)

    @property
    def tau(self) -> float:
        """Packet transmission delay N * T_s in seconds."""
        return self.N * self.T_s

    @property
    def eta(self) -> float:
        """Decoding-threshold SNR exp(L/N) - 1."""
        return math.exp(self.L / self.N) - 1.0

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
    return -np.sqrt(N / (2.0 * np.pi * (np.exp(2.0 * L / N) - 1.0)))


def q_function(x):
    """Gaussian tail Q(x) = 0.5 erfc(x / sqrt(2))."""
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
    """
    g = np.asarray(gamma_r, dtype=float)
    if np.any(g <= 0):
        raise DomainError("instantaneous SNR must be > 0")
    n = float(link.N if N is None else N)
    out = np.subtract(g, _eta(link.L, n), out=np.empty_like(g))
    out *= _lam(link.L, n)
    out += 0.5
    np.clip(out, 0.0, 1.0, out=out)
    return float(out) if np.isscalar(gamma_r) else out


def blep_average(link: LinkParams, N=None) -> float:
    """Average BLEP over Rayleigh fading (exponential SNR of mean gamma_r_bar).

    Exact integral of the segmented model:
        1 + gbar * lam * (exp(-(eta + 1/(2 lam))/gbar)
                          - exp(-(eta - 1/(2 lam))/gbar)),
    clamped to [0, 1].
    """
    n = float(link.N if N is None else N)
    gbar = link.gamma_r_bar
    eta = _eta(link.L, n)
    lam = _lam(link.L, n)
    lo = eta + 1.0 / (2.0 * lam)
    hi = eta - 1.0 / (2.0 * lam)
    val = 1.0 + gbar * lam * (math.exp(-lo / gbar) - math.exp(-hi / gbar))
    return _clamp01(val, "blep_average")


def blep_average_simplified(link: LinkParams, N=None) -> float:
    """Single-exponential average BLEP 1 - exp(-(eta - sqrt(pi L)/N)/gbar).

    Slightly offset from :func:`blep_average` but with elementary
    derivatives in N; used inside every blocklength root function so the
    stationarity conditions stay consistent with the derivative formulas.
    """
    n = float(link.N if N is None else N)
    x = _eta(link.L, n) - math.sqrt(math.pi * link.L) / n
    val = 1.0 - math.exp(-x / link.gamma_r_bar)
    return _clamp01(val, "blep_average_simplified")


def dblep_dN(link: LinkParams, N=None) -> float:
    """d/dN of the simplified average BLEP.

    (sqrt(pi L) - L exp(L/N)) exp(-(eta - sqrt(pi L)/N)/gbar) / (gbar N^2);
    negative whenever L >= pi.  Warns when L < pi since the sign (and the
    convexity arguments that rely on it) are then not guaranteed.
    """
    if link.L < math.pi:
        warnings.warn(
            f"L={link.L} < pi: sign of the blocklength derivative is not guaranteed",
            stacklevel=2,
        )
    n = float(link.N if N is None else N)
    gbar = link.gamma_r_bar
    x = _eta(link.L, n) - math.sqrt(math.pi * link.L) / n
    return (
        (math.sqrt(math.pi * link.L) - link.L * math.exp(link.L / n))
        * math.exp(-x / gbar)
        / (gbar * n * n)
    )


def _clamp01(val: float, name: str) -> float:
    if val < 0.0 or val > 1.0:
        logger.warning("%s clamped from %.6g to [0, 1]", name, val)
        return min(1.0, max(0.0, val))
    return float(val)
