import math

import numpy as np
import pytest
from hypothesis import settings

from homesale.closed_form import MarketParams
from homesale.stochastic import CirParams, DemandParams, _cir_steps

# Property tests draw fixed examples and keep no example database, so
# every run reads the same cases.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

# Reference defaults used across the suite: the waiting-time analysis
# block and the simulation block.
R_DEFAULT = 140.0
L_DEFAULT = 180.0
GAMMA_DEFAULT = 0.1


@pytest.fixture
def market():
    return MarketParams(lam=5.0, mu=5.0, r=0.1, p_min=100.0, p_max=200.0)


@pytest.fixture
def sim_cir():
    return CirParams(kappa=0.25, theta=0.1, sigma=0.08, r0=0.09)


@pytest.fixture
def sim_demand():
    return DemandParams(k1=0.5, k2=1000.0)


def three_sigma(label, analytic, mean, stderr, sigmas=3.0):
    """Assert an analytic value sits inside the MC band."""
    z = (analytic - mean) / stderr
    assert abs(z) <= sigmas, (
        f"{label}: analytic={analytic:.6f} mc={mean:.6f}+-{stderr:.6f} z={z:.2f}")


def cir_mean(p, t):
    """Exact expectation of the CIR short rate at time t."""
    return p.theta + (p.r0 - p.theta) * math.exp(-p.kappa * t)


def cir_ensemble(p, horizon, dt, n_paths, seed):
    """The rates of n_paths independent full-truncation Euler paths, one
    fresh vector per grid time t = 0, dt, 2*dt, ...; each step draws
    standard_normal(n_paths) from one generator."""
    rng = np.random.default_rng(seed)
    sdt = math.sqrt(dt)
    cur = np.full(n_paths, p.r0)
    yield cur
    for _ in range(_cir_steps(horizon, dt)):
        pos = np.maximum(cur, 0.0)
        cur = cur + p.kappa * (p.theta - pos) * dt + p.sigma * np.sqrt(pos) * sdt \
            * rng.standard_normal(n_paths)
        np.maximum(cur, 0.0, out=cur)
        yield cur


def cir_ensemble_finals(p, horizon, dt, n_paths, seed):
    """(final rates, minimum over every path and time) of cir_ensemble,
    holding one step's vector at a time."""
    low = math.inf
    for cur in cir_ensemble(p, horizon, dt, n_paths, seed):
        low = np.minimum(low, cur.min())  # keeps a NaN
    return cur, float(low)
