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
    assert _matrix(f).shape == (1, 1)
    assert f._distances(0, 0) == 0.0
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


@pytest.mark.parametrize("make", [
    lambda: sp.place_sensors(3, 1e307, seed=0),
    lambda: sp.SensorField(positions=np.array([[0.0, 0.0], [-1e155, 3.0]])),
], ids=["placed-1e307", "given-1e155"])
def test_coordinates_beyond_1e150_m_rejected(make):
    # finite, but a squared distance overflows from about 1.3e154 m apart
    with pytest.raises(InvalidConfigError, match="at most 1e\\+150 m"):
        make()


def test_coordinates_of_1e150_m_accepted():
    f = sp.SensorField(positions=np.array([[-1e150, 0.0], [1e150, 1e150]]))
    assert f._distances(0, 1) == pytest.approx(math.sqrt(5.0) * 1e150, rel=1e-15)
    assert sp.mssc(sp.SourceParams(b=0.0), f) == 1.0
    assert sp.mssc(sp.SourceParams(b=0.01), f) == 0.0


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


def _matrix(f):
    """Every pairwise distance of field f, as one (M, M) query."""
    i = np.arange(f.n_sensors)
    return f._distances(i[:, None], i[None, :])


@pytest.mark.parametrize("make", [
    *(lambda seed=seed: sp.place_sensors(40, 10.0, seed=seed, target_index=7)
      for seed in range(5)),
    lambda: sp.SensorField(positions=np.random.default_rng(9).uniform(
        -1e150, 1e150, size=(30, 2)), target_index=3),
    lambda: sp.SensorField(positions=np.array([[-1e150, 1e150], [1e150, -1e150],
                                               [1e150, 1e150], [0.0, -1e150]]),
                           target_index=2),
], ids=[*(f"placed-{seed}" for seed in range(5)), "random-1e150", "corners-1e150"])
def test_pair_distances_are_the_matrix_bit_for_bit(make):
    # reference: every distance as one reduction over (M, M, 2) coordinate
    # differences, and the target's squared spatial weights from its row
    f = make()
    diff = f.positions[:, None, :] - f.positions[None, :, :]
    old = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(old, 0.0)
    assert np.array_equal(_matrix(f), old)
    for b in (0.0, 0.01, 0.37, 1e-150):
        assert np.array_equal(f.target_factors(b),
                              np.exp(-2.0 * b * old[f.target_index - 1]))


def test_distance_matrix_symmetric_zero_diagonal():
    f = sp.place_sensors(6, 10.0, seed=3)
    d = _matrix(f)
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
        rng_dists.append(f._distances(*np.triu_indices(5, k=1)))
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
        np.exp(-2.0 * source.b * f._distances(m, n))
        for n in range(5) if n != m
    ) / 4.0
    assert sp.mssc(source, f) == pytest.approx(direct, rel=1e-14)


def test_mssc_strictly_decreasing_in_b():
    f = sp.place_sensors(5, 10.0, seed=2)
    bs = np.linspace(0.0, 0.5, 20)
    vals = [sp.mssc(sp.SourceParams(b=b), f) for b in bs]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_sample_variance_of_noisy_output(source, field):
    y, _ = sp.sample_joint_gaussian(source, field, [1], [0.0], seed=1, n_draws=100_000)
    target = source.sigma2_x * (1.0 + 1.0 / source.gamma_o)
    assert float(np.var(y)) == pytest.approx(target, rel=0.02)


def test_sampled_temporal_correlation(source, field):
    dt = 0.1
    y, x = sp.sample_joint_gaussian(source, field, [2, 2], [0.0, dt], seed=2,
                                    n_draws=100_000)
    emp = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
    assert emp == pytest.approx(np.exp(-source.a * dt), abs=0.02)


def test_sampled_spatial_correlation(source):
    f = sp.SensorField(positions=np.array([[0.0, 0.0], [30.0, 0.0]]))
    y, x = sp.sample_joint_gaussian(source, f, [1, 2], [0.0, 0.0], seed=3,
                                    n_draws=100_000)
    emp = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
    assert emp == pytest.approx(np.exp(-source.b * 30.0), abs=0.02)


def test_sampled_covariance_matches_model(source):
    f = sp.place_sensors(3, 10.0, seed=13)
    sensors, times = np.array([1, 2, 3, 1]), np.array([0.0, 0.05, 0.2, 0.3])
    n = 100_000
    y, x = sp.sample_joint_gaussian(source, f, sensors, times, seed=4, n_draws=n)
    emp = np.cov(x.T)
    ana = source.sigma2_x * np.exp(
        -source.a * np.abs(times[:, None] - times[None, :])
        - source.b * f._distances(sensors[:, None] - 1, sensors[None, :] - 1))
    # entrywise within 3 standard errors of a covariance estimate
    se = np.sqrt((ana ** 2 + np.outer(np.diag(ana), np.diag(ana))) / n)
    assert np.all(np.abs(emp - ana) < 3.0 * se + 1e-9)


def test_sampling_deterministic_per_seed(source, field):
    a = sp.sample_joint_gaussian(source, field, [1, 3], [0.0, 0.4], seed=8, n_draws=5)
    b = sp.sample_joint_gaussian(source, field, [1, 3], [0.0, 0.4], seed=8, n_draws=5)
    assert np.array_equal(a, b)


def test_sampler_returns_samples_and_states_per_draw(source, field):
    y, x = sp.sample_joint_gaussian(source, field, [1, 3, 2], [0.0, 0.4, 0.1], seed=8)
    assert y.shape == x.shape == (1, 3)  # one draw by default
    for sensors, times in (([], []), ([1, 2], [0.0]), ([[1]], [[0.0]])):
        with pytest.raises(InvalidConfigError, match="1-D arrays of one length"):
            sp.sample_joint_gaussian(source, field, sensors, times)


def _sample_with_correlation(params, field, sensors, times, seed, n_draws):
    """The sampler's draws, with the covariance built by ``correlation``
    over the whole (k, k) query."""
    dt = np.abs(times[:, None] - times[None, :])
    cov = params.sigma2_x * sp.correlation(params, field, sensors[:, None],
                                           sensors[None, :], dt)
    cov[np.diag_indices(len(sensors))] += 1e-10 * params.sigma2_x
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_draws, len(sensors))) @ chol.T
    y = rng.normal(scale=math.sqrt(params.noise_variance), size=x.shape)
    y += x
    return y, x


def test_sampler_covariance_is_the_correlation_bit_for_bit():
    # repeated, unordered sensors with some of 1..M absent: the covariance
    # over the query's distinct sensors has the bits of the (k, k) one
    params = sp.SourceParams(sigma2_x=1.7, gamma_o=5.0, a=2.0, b=0.03)
    f = sp.place_sensors(7, 10.0, seed=21)
    rng = np.random.default_rng(5)
    sensors = rng.choice([2, 5, 7], size=60)
    times = rng.uniform(0.0, 3.0, size=60)
    times[10] = times[3]  # a zero lag between two entries
    got = sp.sample_joint_gaussian(params, f, sensors, times, seed=[1, 2], n_draws=4)
    want = _sample_with_correlation(params, f, sensors, times, [1, 2], 4)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("sensors, times", [
    ([2, 0], [0.0, 1.0]), ([8, 2], [0.0, 1.0]), ([2, 5], [0.0, np.nan]),
])
def test_sampler_rejects_bad_queries(sensors, times):
    f = sp.place_sensors(7, 10.0, seed=21)
    with pytest.raises(InvalidQueryError):
        sp.sample_joint_gaussian(sp.SourceParams(), f, sensors, times)


@pytest.mark.parametrize("times", [[0.0, np.inf], [-np.inf, 1.0], [np.inf]])
def test_sampler_rejects_infinite_times_before_any_arithmetic(times):
    # checked up front, so no inf - inf warns on the way to the error
    f = sp.place_sensors(7, 10.0, seed=21)
    with pytest.raises(InvalidQueryError, match="finite"):
        sp.sample_joint_gaussian(sp.SourceParams(), f, [2] * len(times), times)


def test_field_serialization_round_trip(tmp_path):
    f = sp.place_sensors(5, 10.0, seed=99)
    path = tmp_path / "field.txt"
    sp.save_field(f, path)
    g = sp.load_field(path)
    assert g.seed == 99
    assert g.target_index == f.target_index
    assert np.array_equal(f.positions, g.positions)  # bit-exact round trip
    assert "b_per_m" not in path.read_text()


def test_older_field_files_with_a_b_header_still_load(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("# seed = 4\n# b_per_m = 0.01\n# target_index = 2\n"
                    "sensor_id, x_m, y_m\n1, 0.5, -1.25\n2, 3, 4\n")
    g = sp.load_field(path)
    assert (g.seed, g.target_index) == (4, 2)
    assert g.positions.tolist() == [[0.5, -1.25], [3.0, 4.0]]
