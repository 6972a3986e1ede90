import pytest

import sptrecon as sp
from sptrecon.errors import _SCALE_LIMITS

# default operating point used across the suite: M = 5 sensors in a
# 20 m x 20 m square, unit sample variance, observation SNR 5,
# a = 2 /s, b = 0.01 /m, L = 160 bits, N = 80 c.u., T_s = 0.1 ms,
# average received SNR 5 dB, period 150 ms
FIELD_SEED = 7


@pytest.fixture(scope="session")
def source():
    return sp.SourceParams(sigma2_x=1.0, gamma_o=5.0, a=2.0, b=0.01)


@pytest.fixture(scope="session")
def field():
    return sp.place_sensors(5, 10.0, seed=FIELD_SEED)


@pytest.fixture(scope="session")
def link():
    return sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)


@pytest.fixture(scope="session")
def link_15db():
    return sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=15.0)


@pytest.fixture(scope="session")
def syn_scheme():
    return sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)


@pytest.fixture(scope="session")
def asyn_scheme():
    return sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)


@pytest.fixture(scope="session")
def no_scheme():
    return sp.SchemeConfig(sp.Scheme.NO_INFER, T=0.150, M=1, m=1)


@pytest.fixture
def set_scale_limit(monkeypatch):
    """Sets one limit of the scale-limit table for the test: (kind, value)."""
    def set_limit(kind, value):
        monkeypatch.setitem(_SCALE_LIMITS, kind, (value, *_SCALE_LIMITS[kind][1:]))
    return set_limit
