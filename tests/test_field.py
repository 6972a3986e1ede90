import math

import numpy as np
import pytest
from scipy.integrate import dblquad

import sptrecon as sp
from sptrecon.errors import (
    InvalidConfigError,
    InvalidQueryError,
    UndefinedMsscError,
)


def test_single_sensor_degenerate():
    f = sp.place_sensors(1, 10.0, seed=0)
    assert f.distances.shape == (1, 1)
    assert f.distances[0, 0] == 0.0
    with pytest.raises(UndefinedMsscError):
        sp.mssc(sp.SourceParams(), f)


def test_zero_sensors_rejected():
    with pytest.raises(InvalidConfigError):
        sp.place_sensors(0, 10.0, seed=0)


@pytest.mark.parametrize("coord", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected(coord):
    pos = np.array([[0.0, 0.0], [3.0, coord]])
    with pytest.raises(InvalidConfigError, match="coordinates must be finite"):
        sp.SensorField(positions=pos)


@pytest.mark.parametrize("width", [math.inf, 1e308])
def test_region_half_width_must_be_finite(width):
    # 1e308 is finite, but the square's width 2 w is not
    with pytest.raises(InvalidConfigError, match="region_half_width"):
        sp.place_sensors(3, width, seed=0)


def test_placement_deterministic_under_seed():
    a = sp.place_sensors(5, 10.0, seed=42)
    b = sp.place_sensors(5, 10.0, seed=42)
    assert np.array_equal(a.positions, b.positions)
    c = sp.place_sensors(5, 10.0, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def test_distance_matrix_symmetric_zero_diagonal():
    f = sp.place_sensors(6, 10.0, seed=3)
    d = f.distances
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)


@pytest.mark.parametrize("bad", [0.0, -0.2, math.inf, math.nan])
def test_noise_variance_must_be_positive_and_finite(bad):
    # the noise variance sigma2_x / gamma_o is positive and finite only if
    # both factors are: gamma_o = 0 would divide by zero, gamma_o = inf give 0
    with pytest.raises(InvalidConfigError, match="sigma2_x must be positive"):
        sp.SourceParams(sigma2_x=bad)
    with pytest.raises(InvalidConfigError, match="gamma_o must be positive"):
        sp.SourceParams(gamma_o=bad)
    assert sp.SourceParams(sigma2_x=2.0, gamma_o=4.0).noise_variance == 0.5


def test_spatial_factor_unit_diagonal():
    f = sp.place_sensors(4, 10.0, seed=5)
    idx = np.arange(1, 5)
    fac = sp.correlation(sp.SourceParams(b=0.37), f, idx[:, None], idx[None, :])
    assert np.all(np.diag(fac) == 1.0)
    assert np.all((fac > 0) & (fac <= 1))


def test_mean_pairwise_distance_matches_quadrature():
    # independent oracle: E|X - Y| for two uniform points in a square of
    # side s reduces to a 2-D integral over the coordinate differences,
    # E = int int |delta| * tri(dx) tri(dy) ddx ddy with triangular densities
    side = 20.0

    def tri(d):
        # density of the difference of two independent uniforms on [0, side]
        return (side - abs(d)) / side ** 2

    val, err = dblquad(
        lambda dy, dx: np.hypot(dx, dy) * tri(dx) * tri(dy),
        -side, side, lambda _: -side, lambda _: side,
        epsabs=1e-10, epsrel=1e-10,
    )
    assert err < 1e-6

    rng_dists = []
    for seed in range(10_000):
        f = sp.place_sensors(5, 10.0, seed=seed)
        iu = np.triu_indices(5, k=1)
        rng_dists.append(f.distances[iu])
    emp = float(np.mean(np.concatenate(rng_dists)))
    assert emp == pytest.approx(val, rel=0.01)


def test_correlation_trivial_values(source, field):
    assert sp.correlation(source, field, field.target_index, field.target_index) == 1.0

    src = sp.SourceParams(a=0.5, b=0.01)
    f2 = sp.SensorField(positions=np.array([[0.0, 0.0], [100.0, 0.0]]))
    assert sp.correlation(src, f2, 1, 1, 2.0) == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert sp.correlation(src, f2, 1, 2) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_correlation_rejects_bad_queries(source, field):
    with pytest.raises(InvalidQueryError):
        sp.correlation(source, field, 1, 2, -0.1)
    with pytest.raises(InvalidQueryError):
        sp.correlation(source, field, 0, 2, 0.1)
    with pytest.raises(InvalidQueryError):
        sp.correlation(source, field, 1, 6, 0.1)
    # one bad entry of a broadcast query is enough
    with pytest.raises(InvalidQueryError):
        sp.correlation(source, field, [1, 2], [3, 6], 0.1)
    with pytest.raises(InvalidQueryError):
        sp.correlation(source, field, 1, 2, [0.1, -0.1])
    with pytest.raises(InvalidQueryError):
        sp.correlation(source, field, 1, 2, float("nan"))


def test_correlation_separability(source, field):
    # corr(i, j, dt) = corr(i, j, 0) * corr(same sensor, dt), and one
    # broadcast call equals the scalar calls it replaces
    dts = (0.0, 0.01, 0.5, 3.0)
    grid = sp.correlation(source, field, np.arange(1, 6)[:, None, None],
                          np.arange(1, 6)[None, :, None], np.array(dts))
    assert grid.shape == (5, 5, 4)
    for i in range(1, 6):
        for j in range(1, 6):
            for k, dt in enumerate(dts):
                full = sp.correlation(source, field, i, j, dt)
                spatial = sp.correlation(source, field, i, j)
                temporal = sp.correlation(source, field, i, i, dt)
                assert isinstance(full, float)
                assert grid[i - 1, j - 1, k] == full
                assert abs(full - spatial * temporal) < 1e-12


def test_mssc_trivial_cases():
    f = sp.place_sensors(5, 10.0, seed=9)
    assert sp.mssc(sp.SourceParams(b=0.0), f) == pytest.approx(1.0, abs=1e-15)

    # all sensors equidistant from the target
    r = 4.0
    ang = np.linspace(0, 2 * np.pi, 5, endpoint=False)[:4]
    pos = np.vstack([[0.0, 0.0], np.c_[r * np.cos(ang), r * np.sin(ang)]])
    ring = sp.SensorField(positions=pos, target_index=1)
    src = sp.SourceParams(b=0.05)
    assert sp.mssc(src, ring) == pytest.approx(np.exp(-2 * 0.05 * r), rel=1e-12)


def test_mssc_matches_direct_sum(source):
    f = sp.place_sensors(5, 10.0, seed=21)
    m = f.target_index - 1
    direct = sum(
        np.exp(-2.0 * source.b * f.distances[m, n])
        for n in range(5) if n != m
    ) / 4.0
    assert sp.mssc(source, f) == pytest.approx(direct, rel=1e-14)


def test_mssc_strictly_decreasing_in_b():
    f = sp.place_sensors(5, 10.0, seed=2)
    bs = np.linspace(0.0, 0.5, 20)
    vals = [sp.mssc(sp.SourceParams(b=b), f) for b in bs]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_sample_variance_of_noisy_output(source, field):
    y = sp.sample_joint_gaussian(source, field, [(1, 0.0)], seed=1, n_draws=100_000)
    target = source.sigma2_x * (1.0 + 1.0 / source.gamma_o)
    assert float(np.var(y)) == pytest.approx(target, rel=0.02)


def test_sampled_temporal_correlation(source, field):
    dt = 0.1
    y, x = sp.sample_joint_gaussian(
        source, field, [(2, 0.0), (2, dt)], seed=2, n_draws=100_000,
        return_latent=True)
    emp = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
    assert emp == pytest.approx(np.exp(-source.a * dt), abs=0.02)


def test_sampled_spatial_correlation(source):
    f = sp.SensorField(positions=np.array([[0.0, 0.0], [30.0, 0.0]]))
    y, x = sp.sample_joint_gaussian(
        source, f, [(1, 0.0), (2, 0.0)], seed=3, n_draws=100_000,
        return_latent=True)
    emp = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
    assert emp == pytest.approx(np.exp(-source.b * 30.0), abs=0.02)


def test_sampled_covariance_matches_model(source):
    f = sp.place_sensors(3, 10.0, seed=13)
    entries = [(1, 0.0), (2, 0.05), (3, 0.2), (1, 0.3)]
    n = 100_000
    y, x = sp.sample_joint_gaussian(source, f, entries, seed=4, n_draws=n,
                                    return_latent=True)
    emp = np.cov(x.T)
    sensors = np.array([e[0] for e in entries]) - 1
    times = np.array([e[1] for e in entries])
    ana = source.sigma2_x * np.exp(
        -source.a * np.abs(times[:, None] - times[None, :])
        - source.b * f.distances[sensors[:, None], sensors[None, :]])
    # entrywise within 3 standard errors of a covariance estimate
    se = np.sqrt((ana ** 2 + np.outer(np.diag(ana), np.diag(ana))) / n)
    assert np.all(np.abs(emp - ana) < 3.0 * se + 1e-9)


def test_sampling_deterministic_per_seed(source, field):
    entries = [(1, 0.0), (3, 0.4)]
    a = sp.sample_joint_gaussian(source, field, entries, seed=8, n_draws=5)
    b = sp.sample_joint_gaussian(source, field, entries, seed=8, n_draws=5)
    assert np.array_equal(a, b)


def test_field_serialization_round_trip(tmp_path):
    f = sp.place_sensors(5, 10.0, seed=99)
    path = tmp_path / "field.txt"
    sp.save_field(f, path, b=0.01)
    g, b = sp.load_field(path)
    assert b == 0.01
    assert g.seed == 99
    assert g.target_index == f.target_index
    assert np.array_equal(f.positions, g.positions)  # bit-exact round trip
