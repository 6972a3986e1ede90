"""Sensor geometry and the spatially-temporally correlated Gaussian source.

A set of M sensors at fixed planar positions observes a zero-mean Gaussian
process.  Two real samples taken by sensors i and j at times t >= t'
decorrelate exponentially in both the time lag and the sensor separation:

    corr(X_{i,t}, X_{j,t'}) = exp(-a (t - t') - b r_ij)

with a the temporal decay rate (1/s), b the spatial decay rate (1/m) and
r_ij the Euclidean distance in metres.  Each sensor observes the process
through additive white Gaussian noise with observation SNR gamma_o.

Units are seconds and metres throughout.  Sensor indices are 1-based in the
public API (sensor 1 .. sensor M), matching the transmission-slot numbering
used by the scheduling formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    InvalidConfigError,
    InvalidQueryError,
    UndefinedMsscError,
)

# Relative diagonal jitter added before Cholesky factorization.  The
# separable exponential kernel is PSD in exact arithmetic only.
_COV_JITTER = 1e-10

# Largest coordinate magnitude in metres: far beyond any physical field and
# far below the 1.3e154 m separation whose squared distance overflows.
_MAX_COORD_M = 1e150


@dataclass(frozen=True)
class SourceParams:
    """Stochastic source description.

    sigma2_x : sample variance of the observed process (> 0)
    gamma_o  : observation SNR (> 0), equal for all sensors; the noise
               variance is sigma2_x / gamma_o
    a        : temporal decay rate in 1/s (> 0)
    b        : spatial decay rate in 1/m (>= 0)
    """

    sigma2_x: float = 1.0
    gamma_o: float = 5.0
    a: float = 2.0
    b: float = 0.01

    def __post_init__(self):
        if not (self.sigma2_x > 0 and math.isfinite(self.sigma2_x)):
            raise InvalidConfigError(f"sigma2_x must be positive, got {self.sigma2_x}")
        if not (self.gamma_o > 0 and math.isfinite(self.gamma_o)):
            raise InvalidConfigError(f"gamma_o must be positive, got {self.gamma_o}")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise InvalidConfigError(f"temporal decay a must be positive, got {self.a}")
        if not (self.b >= 0 and math.isfinite(self.b)):
            raise InvalidConfigError(f"spatial decay b must be nonnegative, got {self.b}")

    @property
    def noise_variance(self) -> float:
        """Observation-noise variance sigma2_x / gamma_o."""
        return self.sigma2_x / self.gamma_o


@dataclass(frozen=True, eq=False)
class SensorField:
    """Immutable sensor geometry.

    positions    : (M, 2) array of planar coordinates in metres
    target_index : 1-based index m of the sensor being reconstructed
    seed         : placement seed, kept for provenance (None if hand-built)
    """

    positions: np.ndarray
    target_index: int = 1
    seed: int | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise InvalidConfigError(f"positions must be (M, 2), got {pos.shape}")
        if not (np.abs(pos) <= _MAX_COORD_M).all():  # NaN too
            raise InvalidConfigError("sensor coordinates must be finite and at most "
                                     f"{_MAX_COORD_M:g} m in magnitude: {pos.tolist()}")
        object.__setattr__(self, "positions", pos)
        if not 1 <= self.target_index <= pos.shape[0]:
            raise InvalidConfigError(
                f"target_index {self.target_index} outside 1..{pos.shape[0]}"
            )

    @property
    def n_sensors(self) -> int:
        return self.positions.shape[0]

    def _distances(self, i, j):
        """Distances r_ij between the sensors at 0-based indices i and j, which
        broadcast, formed per coordinate: k pairs size k values, not M^2."""
        x, y = self.positions.T
        dx, dy = np.asarray(x[i] - x[j]), y[i] - y[j]  # in place from here on
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    def target_factors(self, b: float) -> np.ndarray:
        """Squared spatial weights exp(-2 b r_mn) from the target to each sensor."""
        return np.exp(-2.0 * b * self._distances(self.target_index - 1, slice(None)))


def place_sensors(M, region_half_width, seed=None, target_index=1):
    """Drop M sensors uniformly in the square [-w, w]^2.

    This realizes a homogeneous Poisson point process conditioned on the
    point count being exactly M, which is the standard conditioning when an
    experiment fixes the sensor count.  Deterministic under a fixed seed.
    """
    if M < 1:
        raise InvalidConfigError(f"sensor count must be >= 1, got {M}")
    if not (region_half_width > 0 and math.isfinite(2.0 * region_half_width)):
        raise InvalidConfigError(f"region_half_width must be > 0 with a finite "
                                 f"width 2 w, got {region_half_width}")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-region_half_width, region_half_width, size=(M, 2))
    return SensorField(positions=pos, target_index=target_index, seed=seed)


def correlation(params: SourceParams, field: SensorField, i, j, dt=0.0):
    """Correlation exp(-a dt - b r_ij) between the samples of sensors i and j
    taken dt >= 0 seconds apart; in (0, 1].

    i, j and dt broadcast against each other; scalars give a float.  A
    sensor index outside 1..M or a negative lag raises InvalidQueryError.
    """
    M = field.n_sensors
    i, j = np.asarray(i), np.asarray(j)
    if min(i.min(), j.min()) < 1 or max(i.max(), j.max()) > M:
        raise InvalidQueryError(f"sensor index outside 1..{M}")
    if not np.min(dt) >= 0:  # NaN too
        raise InvalidQueryError(f"time lag must be >= 0, got {np.min(dt)}")
    val = np.exp(-params.a * dt - params.b * field._distances(i - 1, j - 1))
    return float(val) if val.ndim == 0 else val


def mssc(params: SourceParams, field: SensorField) -> float:
    """Mean squared spatial correlation seen by the target sensor.

    Average of exp(-2 b r_mn) over the M-1 non-target sensors; the scalar
    that summarizes how much the neighbours can tell us about the target.
    """
    M = field.n_sensors
    if M < 2:
        raise UndefinedMsscError("MSSC needs at least two sensors")
    sq = field.target_factors(params.b)
    return float((sq.sum() - 1.0) / (M - 1))


def sample_joint_gaussian(params, field, sensors, times, seed=None, n_draws=1):
    """Draw noisy samples Y = X + V at the (sensor, time) points
    (sensors[i], times[i]), two equal-length 1-D arrays.

    X is drawn from the joint Gaussian whose covariance follows the
    separable exponential model; V is i.i.d. observation noise of variance
    sigma2_x / gamma_o.  Returns (y, x), each of shape (n_draws, k): the
    noisy samples and the noise-free states.

    Draw order is fixed (all X innovations, then all noise) so results are
    reproducible for a given seed regardless of how they are consumed.  A
    sensor outside 1..M or a time that is not finite raises
    InvalidQueryError.
    """
    sensors = np.asarray(sensors, dtype=int)
    times = np.asarray(times, dtype=float)
    if sensors.ndim != 1 or times.shape != sensors.shape or not len(sensors):
        raise InvalidConfigError("sensors and times must be nonempty 1-D arrays of "
                                 f"one length, got shapes {sensors.shape}, {times.shape}")

    M = field.n_sensors
    distinct, inv = np.unique(sensors, return_inverse=True)
    if distinct[0] < 1 or distinct[-1] > M:
        raise InvalidQueryError(f"sensor index outside 1..{M}")
    if not np.isfinite(times).all():
        raise InvalidQueryError("sample times must be finite")

    # sigma2 exp(-a |dt| - b r), as :func:`correlation` forms it, with b r
    # taken once per distinct sensor pair and gathered
    k = len(sensors)
    br = params.b * field._distances(distinct[:, None] - 1, distinct[None, :] - 1)
    cov = np.subtract.outer(times, times)
    np.abs(cov, out=cov)
    cov *= -params.a
    cov -= br[:, inv][inv]  # whole rows last: np.ix_ gathers 8x slower
    np.exp(cov, out=cov)
    cov *= params.sigma2_x
    cov[np.diag_indices(k)] += _COV_JITTER * params.sigma2_x

    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        eigmin = float(np.linalg.eigvalsh(cov).min())
        raise DecompositionError(
            f"covariance not PSD after jitter (min eigenvalue {eigmin:.3e}, "
            f"size {k})"
        ) from exc
    del cov  # only the factor is needed from here on

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_draws, k)) @ chol.T
    del chol
    # the noise is drawn into the buffer that becomes y = x + v
    y = rng.normal(scale=math.sqrt(params.noise_variance), size=(n_draws, k))
    y += x
    return y, x


def save_field(field: SensorField, path):
    """Write positions as a plain-text table with a provenance header.

    Floats use 17 significant digits so the decimal form round-trips the
    binary value exactly.
    """
    lines = [
        f"# seed = {field.seed if field.seed is not None else 'none'}",
        f"# target_index = {field.target_index}",
        "sensor_id, x_m, y_m",
    ]
    for i, (x, y) in enumerate(field.positions, start=1):
        lines.append(f"{i}, {_fmt(x)}, {_fmt(y)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path):
    """Read a field written by :func:`save_field`.  Other header keys (such
    as the ``b_per_m`` line of older files) are ignored.  A line that is not
    UTF-8 text or not a row of three numbers raises InvalidConfigError
    naming the file and the line."""
    seed = None
    target = 1
    rows = []
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line or line.startswith("sensor_id"):
                    continue
                if line.startswith("#"):
                    key, _, val = line.lstrip("# ").partition("=")
                    key, val = key.strip(), val.strip()
                    if key == "seed" and val != "none":
                        seed = int(val)
                    elif key == "target_index":
                        target = int(val)
                    continue
                _, x, y = line.split(",")
                rows.append((float(x), float(y)))
            except ValueError as exc:  # UnicodeDecodeError too
                why = ("not UTF-8 text" if isinstance(exc, UnicodeDecodeError)
                       else "expected 'sensor_id, x_m, y_m' or a '# key = value' "
                            f"header, got {line!r}")
                raise InvalidConfigError(f"field file {str(path)!r} line {n}: "
                                         f"{why}") from exc
    return SensorField(positions=np.array(rows), target_index=target, seed=seed)


def _fmt(x: float) -> str:
    return f"{x:.17g}"
