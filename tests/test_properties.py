"""Invariants of the closed forms over random valid parameters.

Intensities are drawn from {0} u [1e-6, 50]: below that, squared
intensities inside the exact listed payoff underflow, which says
nothing about the model.  Examples are derandomized so every run checks
the same cases.
"""

import math
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homesale.closed_form import (_LARGE_ARG, SMALL_ARG, MarketParams,
                                  auxiliary_payoff, listed_payoff,
                                  listed_payoff_exact, thinned_payoff,
                                  withdrawal_fraction)

EPS = sys.float_info.epsilon

bounded = settings(max_examples=300, deadline=None, derandomize=True, database=None)

intensities = st.one_of(st.just(0.0), st.floats(1e-6, 50.0))
rates = st.one_of(st.just(0.0), st.floats(1e-6, 0.5))
horizons = st.floats(1e-3, 50.0)


@st.composite
def markets(draw):
    """(MarketParams, R, L) with p_min <= R <= L <= p_max."""
    p_min = draw(st.floats(1.0, 500.0))
    p_max = p_min + draw(st.floats(1.0, 500.0))
    R = p_min + draw(st.floats(0.0, 1.0)) * (p_max - p_min)
    L = min(R + draw(st.floats(0.0, 1.0)) * (p_max - R), p_max)
    m = MarketParams(draw(intensities), draw(intensities), draw(rates), p_min, p_max)
    return m, R, L


def straddle(T, switch):
    """Neighbouring doubles (lo, hi) with lo*T < switch <= hi*T."""
    hi = switch / T
    while hi * T < switch:
        hi = math.nextafter(hi, math.inf)
    lo = math.nextafter(hi, 0.0)
    while lo * T >= switch:
        lo = math.nextafter(lo, 0.0)
    return lo, hi


def rel_jump(a, b):
    return abs(a - b) / abs(b)


@bounded
@given(markets(), horizons)
def test_waiting_only_payoffs_bounded_by_discounted_top(mR, T):
    m, R, _ = mR
    top = m.p_max * math.exp(-m.r * T)
    assert 0.0 <= auxiliary_payoff(T, m) <= top
    assert 0.0 <= thinned_payoff(T, m, R) <= top


@bounded
@given(markets(), horizons)
def test_listed_payoffs_bounded_by_top(mRL, T):
    m, R, L = mRL
    assert 0.0 <= listed_payoff(T, m, R, L) <= m.p_max
    assert 0.0 <= listed_payoff_exact(T, m, R, L) <= m.p_max


@bounded
@given(markets(), horizons)
def test_plain_listed_payoff_below_exact(mRL, T):
    # the plain form discounts crossings past T as if they landed before
    # it, which only lowers the value; at r = 0 the two agree in exact
    # arithmetic and their different operation orders round apart by a
    # couple of ulps
    m, R, L = mRL
    exact = listed_payoff_exact(T, m, R, L)
    assert listed_payoff(T, m, R, L) <= exact * (1.0 + 4.0 * EPS)


@bounded
@given(markets(), horizons)
def test_thinned_payoff_is_auxiliary_payoff_of_the_thinned_stream(mR, T):
    # offers below R never matter: the stream thins to intensity
    # lam*(p_max - R)/(p_max - p_min) with values uniform on (R, p_max),
    # and the two evaluations must agree to the last bit
    m, R, _ = mR
    assume(R < m.p_max)
    lam_thin = m.lam * (m.p_max - R) / (m.p_max - m.p_min)
    thinned_market = MarketParams(lam_thin, m.mu, m.r, R, m.p_max)
    assert thinned_payoff(T, m, R) == auxiliary_payoff(T, thinned_market)


# The direct form of the withdrawal fraction, 1 + expm1(-x)/x, cancels
# to about 4*eps/x relative; at the switch the series must agree to
# within twice that.
SERIES_JUMP = 8.0 * EPS / SMALL_ARG


@bounded
@given(horizons)
def test_withdrawal_fraction_continuous_at_series_switch(T):
    lo, hi = straddle(T, SMALL_ARG)
    assert rel_jump(withdrawal_fraction(T, lo), withdrawal_fraction(T, hi)) <= SERIES_JUMP


@bounded
@given(horizons, rates)
def test_auxiliary_payoff_continuous_at_series_switch(T, r):
    # no withdrawals, so x = lam*T crosses the switch with lam
    lo, hi = straddle(T, SMALL_ARG)
    a = auxiliary_payoff(T, MarketParams(lo, 0.0, r, 100.0, 200.0))
    b = auxiliary_payoff(T, MarketParams(hi, 0.0, r, 100.0, 200.0))
    assert rel_jump(a, b) <= SERIES_JUMP


@bounded
@given(horizons, rates)
def test_auxiliary_payoff_continuous_at_large_x_switch(T, r):
    # the direct form rounds its exponent -r*T - x to about
    # (x + r*T)*eps/2, which bounds the jump to the large-x form
    lo, hi = straddle(T, _LARGE_ARG)
    a = auxiliary_payoff(T, MarketParams(lo, 0.0, r, 100.0, 200.0))
    b = auxiliary_payoff(T, MarketParams(hi, 0.0, r, 100.0, 200.0))
    assert rel_jump(a, b) <= 4.0 * (_LARGE_ARG + r * T) * EPS
