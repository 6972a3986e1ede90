"""Scheme-preference regions over the mean squared spatial correlation.

Two thresholds on the MSSC split the axis into three regions: below thr1
plain no-inference wins, between thr1 and thr2 synchronous inference wins,
and from thr2 up the asynchronous scheme wins.  Both thresholds are
computed on the MSSC-substituted closed forms (every non-target spatial
weight replaced by the MSSC), which is also what the exhaustive oracle
evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blep import LinkParams
from .errors import InvalidConfigError, RegionDegenerateError
from .field import SourceParams
from .mse import (
    Scheme,
    SchemeConfig,
    _eps,
    mse_asyn_infer_approx,
    mse_no_infer,
    mse_syn_infer_approx,
    psi_values,
)


@dataclass(frozen=True)
class RegionThresholds:
    thr1: float
    thr2: float


@dataclass(frozen=True)
class RegionReport:
    """Classification of one operating point on the MSSC axis."""

    mssc: float
    thr1: float
    thr2: float
    winner: Scheme
    gain_infer: float
    gain_asyn_over_syn: float


def threshold_infer(source: SourceParams, link: LinkParams, scheme: SchemeConfig,
                    eps_bar=None) -> float:
    """Smallest MSSC at which inference beats no inference.

    thr1 = E (1 - eps) / (1 - E eps) with E = exp(-2 a T); monotone
    decreasing in eps and saturating to E as eps -> 0, so inference can pay
    off even when the spatial correlation is weaker than the squared
    temporal correlation over one period.
    """
    eps = _eps(link, eps_bar)
    E = math.exp(-2.0 * source.a * scheme.T)
    return E * (1.0 - eps) / (1.0 - E * eps)


def threshold_asyn_over_syn(source: SourceParams, link: LinkParams,
                            scheme: SchemeConfig, eps_bar=None) -> float:
    """Smallest MSSC at which asynchronous inference beats synchronous.

    With lam = (1-E)(1 - q eps) / (1 - E eps^M):

        thr2 = (lam - Psi_m) / (sum_{n != m} Psi_n - lam (eps - eps^M)/(1-eps))

    At the threshold the two MSSC-substituted closed forms are equal by
    construction.  A non-positive denominator means no finite crossover
    exists; the raised error reports which scheme dominates.
    """
    if scheme.scheme is not Scheme.ASYN_INFER:
        raise InvalidConfigError("threshold_asyn_over_syn needs an asynchronous config")
    eps = _eps(link, eps_bar)
    a, T, M, m = source.a, scheme.T, scheme.M, scheme.m
    E = math.exp(-2.0 * a * T)
    q = math.exp(-2.0 * a * scheme.h)
    lam = (1.0 - E) * (1.0 - q * eps) / (1.0 - E * eps ** M)
    psi = psi_values(source, scheme, eps)
    psi_m = float(psi[m - 1])
    psi_rest = float(psi.sum() - psi_m)
    geo = sum(eps ** k for k in range(1, M))  # (eps - eps^M)/(1 - eps), also at eps = 1
    den = psi_rest - lam * geo
    if den <= 0.0:
        # asyn wins iff rho * den > lam - psi_m; with den <= 0 the left side
        # ranges over [den, 0], so the outcome no longer depends on a threshold
        always = den > (lam - psi_m)
        raise RegionDegenerateError(
            "no finite syn/asyn crossover: asynchronous scheme is "
            + ("always" if always else "never or only at weak MSSC") + " superior",
            always_superior=always,
        )
    return (lam - psi_m) / den


def classify(mssc_value: float, thresholds: RegionThresholds) -> Scheme:
    """Winner at a given MSSC: <= thr1 no-infer, < thr2 syn, else asyn."""
    if thresholds.thr2 <= thresholds.thr1:
        raise RegionDegenerateError(
            f"thresholds out of order (thr1={thresholds.thr1}, thr2={thresholds.thr2})",
            always_superior=True,
        )
    if mssc_value <= thresholds.thr1:
        return Scheme.NO_INFER
    if mssc_value < thresholds.thr2:
        return Scheme.SYN_INFER
    return Scheme.ASYN_INFER


def region_report(source, link, scheme, mssc_value, eps_bar=None) -> RegionReport:
    """Thresholds, winner and gain ratios at one MSSC value."""
    thr1 = threshold_infer(source, link, scheme, eps_bar)
    thr2 = threshold_asyn_over_syn(source, link, scheme, eps_bar)
    winner = classify(mssc_value, RegionThresholds(thr1, thr2))
    no = mse_no_infer(source, link, scheme, eps_bar).value
    syn = mse_syn_infer_approx(source, mssc_value, link, scheme, eps_bar).value
    asyn = mse_asyn_infer_approx(source, mssc_value, link, scheme, eps_bar).value
    return RegionReport(
        mssc=mssc_value, thr1=thr1, thr2=thr2, winner=winner,
        gain_infer=no / syn, gain_asyn_over_syn=syn / asyn,
    )


def exhaustive_region_oracle(source, link, scheme, mssc_grid, eps_bar=None):
    """Winner per grid point by direct evaluation of the three closed forms.

    Independent of the threshold formulas; used to validate them.  Returns
    a list of (mssc, Scheme) pairs.
    """
    out = []
    no = mse_no_infer(source, link, scheme, eps_bar).value
    for rho in np.asarray(mssc_grid, dtype=float):
        syn = mse_syn_infer_approx(source, float(rho), link, scheme, eps_bar).value
        asyn = mse_asyn_infer_approx(source, float(rho), link, scheme, eps_bar).value
        best = min((no, Scheme.NO_INFER), (syn, Scheme.SYN_INFER),
                   (asyn, Scheme.ASYN_INFER), key=lambda t: t[0])
        out.append((float(rho), best[1]))
    return out


__all__ = [
    "RegionThresholds", "RegionReport",
    "threshold_infer", "threshold_asyn_over_syn",
    "classify", "region_report", "exhaustive_region_oracle",
]
