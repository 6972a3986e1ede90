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
is analytic in N and is the BLEP inside the adaptation objective, whose
slopes are complex steps of it; its own slope :func:`dblep_dN` is the
complex step of its exponent.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

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

    L           : information bits per packet (> 0, at most 1e300: every BLEP
                  model is finite there, and past 5.7e307 pi L overflows)
    N           : blocklength in channel uses (integer >= 1)
    T_s         : symbol duration in seconds (> 0)
    gamma_r_bar : average received SNR, linear (> 0, at most 1e300, where
                  the average-BLEP models' L/N > 700 clamp is still exact)
    """

    L: float = 160.0
    N: int = 80
    T_s: float = 1e-4
    gamma_r_bar: float = 10 ** 0.5

    def __post_init__(self):
        if not 0 < self.L <= 1e300:  # NaN too
            raise InvalidConfigError(f"L must be in (0, 1e300], got {self.L}")
        if not (math.isfinite(self.N) and int(self.N) == self.N and self.N >= 1):
            raise InvalidConfigError(f"N must be an integer >= 1, got {self.N}")
        if not (self.T_s > 0 and math.isfinite(self.T_s)):
            raise InvalidConfigError(f"T_s must be finite and > 0, got {self.T_s}")
        if not 0 < self.gamma_r_bar <= 1e300:  # NaN too
            raise InvalidConfigError(
                f"gamma_r_bar must be in (0, 1e300] (linear), got {self.gamma_r_bar}"
            )

    @classmethod
    def from_db(cls, gamma_r_bar_db=None, **kw):
        """The link with gamma_r_bar given in dB; other fields as in the class."""
        if gamma_r_bar_db is not None:
            if not gamma_r_bar_db <= 3000.0:  # NaN too; 10^300 is exactly 1e300
                raise InvalidConfigError(f"gamma_r_bar_db must be at most 3000 dB "
                                         f"(1e300 linear), got {gamma_r_bar_db}")
            kw["gamma_r_bar"] = 10 ** (gamma_r_bar_db / 10.0)
        return cls(**kw)

    @property
    def tau(self) -> float:
        """Packet transmission delay N * T_s in seconds."""
        return self.N * self.T_s

    @property
    def eta(self) -> float:
        """Decoding-threshold SNR exp(L/N) - 1."""
        return float(_eta(self.L, self.N))


# the complex step d: far below the rounding of any real part, which stays
# f(x) to the last bit, and far above the underflow of d f'
_STEP = 1e-150


def _complex_step(f, x):
    """f'(x) = Im f(x + i d) / d for f analytic at the real x (or array x),
    exact to rounding with no cancellation (Squire & Trapp 1998)."""
    return f(np.add(x, _STEP * 1j)).imag / _STEP


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


_erfc = np.frompyfunc(math.erfc, 1, 1)  # elementwise, so the package needs no SciPy


def q_function(x):
    """Gaussian tail Q(x) = 0.5 erfc(x / sqrt(2)), as a float array."""
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) / np.sqrt(2.0)), dtype=float)


def blep_instantaneous(link: LinkParams, gamma_r):
    """Normal-approximation BLEP at instantaneous SNR gamma_r.

    Accepts scalars or arrays; strictly positive SNR required.
    """
    g = _positive_snr(gamma_r)
    n = float(link.N)
    capacity = np.log(1.0 + g)
    dispersion = 1.0 - (1.0 + g) ** -2
    arg = np.sqrt(n / dispersion) * (capacity - link.L / n)
    out = q_function(arg)
    return float(out) if np.isscalar(gamma_r) else out


def _positive_snr(gamma_r):
    """gamma_r as a float array, every entry of which must be > 0 (NaN is
    not); an empty array passes."""
    g = np.asarray(gamma_r, dtype=float)
    if not np.min(g, initial=np.inf) > 0:
        raise DomainError("instantaneous SNR must be > 0")
    return g


def _segment(link: LinkParams):
    """The linear segment of :func:`blep_segmented`, unclipped, with its
    constants formed once: a function (g, out) -> out that writes the
    segment at the SNRs g into out and checks nothing.  lam is at most
    -5e-324, so where it underflows (L/N past about 745) an infinite SNR
    gives -inf, not inf * -0.0 = NaN."""
    n = float(link.N)
    f0, lam = _f0(link.L, n), min(_lam(link.L, n), -math.ulp(0.0))
    if f0 < 1.0 or link.L / n > _EXP_MAX:
        def segment(g, out):
            np.multiply(g, lam, out=out)
            out += f0
            return out
    else:
        eta = _eta(link.L, n)

        def segment(g, out):
            np.subtract(g, eta, out=out)
            out *= lam
            out += 0.5
            return out
    return segment


def blep_segmented(link: LinkParams, gamma_r):
    """Piecewise-linear BLEP: 1 below the linear band, 0 above it.

    The band is centred on eta with half-width -1/(2 lambda); the form is
    continuous at both knots, so it is the linear segment
    lambda (g - eta) + 1/2 clipped to [0, 1], computed in one new buffer.
    Where the lower knot is negative (F(0) < 1, see :func:`_f0`) or eta
    overflows, the same segment is evaluated as F(0) + lambda g.  An
    infinite SNR gives 0 on every link.  Strictly positive SNR required.
    """
    g = _positive_snr(gamma_r)
    out = _segment(link)(g, np.empty_like(g))
    np.clip(out, 0.0, 1.0, out=out)
    return float(out) if np.isscalar(gamma_r) else out


def _blocklengths(link: LinkParams, N):
    """Blocklength(s) as floats, or complex for a complex step, the link's
    own N when None; a scalar becomes a numpy scalar, whose arithmetic is
    much cheaper than a 0-d array's."""
    n = link.N if N is None else N
    return np.asarray(n, dtype=complex if np.iscomplexobj(n) else float)[()]


def _simplified_exponent(link: LinkParams, n):
    """eta - sqrt(pi L)/N, the exponent (times gbar) of the simplified model.
    Past L/N = _EXP_MAX it is taken at N = L/_EXP_MAX, as in
    :func:`blep_average`: eta is then about 1e304, so with gbar <= 1e300 the
    model is exactly 1 there, as at the true N, its slope exactly 0, and
    exp(L/N) never overflows.  ``np.maximum`` orders a complex N by its real
    part first.  A complex N, a slope in N, warns at L < pi."""
    if link.L < math.pi and np.iscomplexobj(n):
        warnings.warn(f"L={link.L} < pi: sign of the blocklength derivative is not "
                      "guaranteed", stacklevel=3)
    m = np.maximum(n, link.L / _EXP_MAX)
    return _eta(link.L, m) - math.sqrt(math.pi * link.L) / m


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
    the knots are taken at the exponent _EXP_MAX, which keeps eta finite:
    both exp terms are then 0, so the value is 1 above the band.  The band
    takes lam at the true N (finite for any L/N, about -sqrt(N / 2 pi)
    exp(-L/N)), so its value is F(0) + gbar lam, as in the segmented model.
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
        val = np.where(band, f0 + gbar * _lam(link.L, n) * (1.0 - tail), val)
    return _clamp01(val, "blep_average")


def blep_average_simplified(link: LinkParams, N=None):
    """Single-exponential average BLEP 1 - exp(-(eta - sqrt(pi L)/N)/gbar).

    Slightly offset from :func:`blep_average` but analytic in N; the
    adaptation objective uses it, and the stationarity functions are
    complex steps through it.  N broadcasts, and may be complex; a scalar
    N gives a scalar.
    """
    n = _blocklengths(link, N)
    val = 1.0 - np.exp(-_simplified_exponent(link, n) / link.gamma_r_bar)
    return _clamp01(val, "blep_average_simplified")


def dblep_dN(link: LinkParams, N=None):
    """d/dN of the simplified average BLEP, exp(-X/gbar) X'(N) / gbar with
    X = eta - sqrt(pi L)/N its exponent and X' the complex step of X.

    Stepping X rather than the whole BLEP keeps the slope's range: the decay
    and 1/gbar stay real, and no L exp(L/N) or gbar N^2 is formed.  Negative
    whenever L >= pi (it warns below).  N broadcasts; a scalar N is stepped
    as a 1-element array, equal to its batched entry, and gives a float.
    """
    n = _blocklengths(link, N)
    x = np.atleast_1d(n)
    slope = _complex_step(lambda m: _simplified_exponent(link, m), x)
    val = np.exp(-_simplified_exponent(link, x) / link.gamma_r_bar) * slope / link.gamma_r_bar
    return float(val[0]) if n.ndim == 0 else val


def _clamp01(val, name: str):
    """val clipped to [0, 1] by its real part, a clipped entry's complex step
    to 0; one warning per call counts the clipped entries."""
    re = val.real
    outside = (re < 0.0) | (re > 1.0)
    clipped = np.count_nonzero(outside) if val.ndim else int(outside)
    if clipped:
        logger.warning("%s clamped %d value(s) to [0, 1]", name, clipped)
        val = np.where(outside, np.clip(re, 0.0, 1.0), val)
    return val.item() if val.ndim == 0 else val
