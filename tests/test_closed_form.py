import math

import numpy as np
import pytest

import homesale.path_payoff as pp
from conftest import GAMMA_DEFAULT, L_DEFAULT, R_DEFAULT, three_sigma
from homesale.closed_form import (SMALL_ARG, MarketParams, asymptotic_listed_payoff,
                                  auxiliary_payoff, expected_utility, listed_payoff,
                                  listed_payoff_exact, thinned_payoff,
                                  withdrawal_fraction)
from homesale.oracle import mc_path_payoff, table2_context
from homesale.stochastic import CirParams

ASYMPTOTE_TABLE1 = 172.72727272727272  # ((200+180)/2) * 1/(1+0.1)


def rank_sum_payoff(T, lam, mu, p_min, p_max, r, n_max=300):
    """Independent oracle: Poisson mixture over the per-rank survivor scan.

    Conditional on n offers, the seller gets the i-th highest value when
    the i-1 better ones were withdrawn and that one was not; survival of
    a uniformly-arrived offer has probability 1 - f.  Truncated at n_max
    terms (the Poisson tail is negligible for the cases tested).
    """
    f = 1.0 - (1.0 - math.exp(-mu * T)) / (mu * T) if mu > 0 else 0.0
    total = 0.0
    for n in range(1, n_max):
        log_pois = -lam * T + n * math.log(lam * T) - math.lgamma(n + 1)
        inner = 0.0
        for i in range(1, n + 1):
            value = p_min + (p_max - p_min) * (n - i + 1) / (n + 1)
            inner += value * (1.0 - f) * f ** (i - 1)
        total += math.exp(log_pois) * inner
    return math.exp(-r * T) * total


class TestWithdrawalFraction:
    def test_vanishes_at_short_horizon(self):
        assert withdrawal_fraction(1e-12, 5.0) == pytest.approx(0.0, abs=1e-10)

    def test_certain_withdrawal_at_huge_mu(self):
        assert withdrawal_fraction(1.0, 1e12) == pytest.approx(1.0, abs=1e-9)

    def test_zero_mu_means_no_withdrawals(self):
        assert withdrawal_fraction(3.0, 0.0) == 0.0

    def test_monte_carlo_oracle(self):
        # P{delay < T - A} with A ~ U(0,T), delay ~ Exp(5)
        rng = np.random.default_rng(101)
        n = 1_000_000
        arrivals = rng.uniform(0.0, 1.0, n)
        delays = rng.exponential(1.0 / 5.0, n)
        hits = (delays < 1.0 - arrivals).astype(float)
        mean = hits.mean()
        stderr = hits.std(ddof=1) / math.sqrt(n)
        three_sigma("withdrawal_fraction", withdrawal_fraction(1.0, 5.0), mean, stderr)

    def test_bounded_and_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            T = float(rng.uniform(1e-6, 20.0))
            mu = float(rng.uniform(0.0, 50.0))
            f = withdrawal_fraction(T, mu)
            assert 0.0 <= f < 1.0
            assert withdrawal_fraction(T * 1.7, mu) >= f
            assert withdrawal_fraction(T, mu + 1.3) >= f

    def test_series_switch_is_continuous(self):
        below = withdrawal_fraction(1.0, 0.9999e-4)
        above = withdrawal_fraction(1.0, 1.0001e-4)
        assert abs(below - above) < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            withdrawal_fraction(0.0, 5.0)
        with pytest.raises(ValueError):
            withdrawal_fraction(1.0, -1.0)
        with pytest.raises(ValueError):
            withdrawal_fraction(math.nan, 5.0)
        with pytest.raises(ValueError):
            withdrawal_fraction(1.0, math.inf)


class TestAuxiliaryPayoff:
    def test_matches_rank_sum_oracle(self, market):
        for T in (0.25, 1.0, 2.0, 5.0):
            for lam in (1.0, 5.0, 12.0):
                m = MarketParams(lam, market.mu, market.r, market.p_min, market.p_max)
                got = auxiliary_payoff(T, m)
                want = rank_sum_payoff(T, lam, m.mu, m.p_min, m.p_max, m.r)
                assert got == pytest.approx(want, rel=1e-11)

    def test_zero_at_short_horizon(self, market):
        assert auxiliary_payoff(1e-10, market) == pytest.approx(0.0, abs=1e-6)

    def test_zero_without_offers(self, market):
        m = MarketParams(1e-12, market.mu, market.r, market.p_min, market.p_max)
        assert auxiliary_payoff(1.0, m) == pytest.approx(0.0, abs=1e-8)

    def test_bounded_by_discounted_top_value(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = MarketParams(float(rng.uniform(0, 20)), float(rng.uniform(0, 20)),
                             float(rng.uniform(0, 0.5)), 100.0, 200.0)
            T = float(rng.uniform(1e-3, 30.0))
            u = auxiliary_payoff(T, m)
            assert 0.0 <= u <= m.p_max * math.exp(-m.r * T) + 1e-12

    def test_series_switch_continuity_in_lambda(self, market):
        lo = MarketParams(0.9999e-4, market.mu, market.r, 100.0, 200.0)
        hi = MarketParams(1.0001e-4, market.mu, market.r, 100.0, 200.0)
        assert auxiliary_payoff(1.0, lo) == pytest.approx(
            auxiliary_payoff(1.0, hi), rel=1e-3)

    @pytest.mark.parametrize("x", [705.0, 710.0])
    def test_many_surviving_offers(self, x):
        # without withdrawals x = lam*T; e^x overflows a double near 709.8,
        # while the payoff tends to e^(-rT) (p_max - (p_max - p_min)/x)
        m = MarketParams(x, 0.0, 0.1, 100.0, 200.0)
        u = auxiliary_payoff(1.0, m)
        assert u == pytest.approx(math.exp(-0.1) * (200.0 - 100.0 / x), rel=1e-14)

    def test_monte_carlo_oracle(self, market):
        from homesale.oracle import mc_auxiliary_payoff

        est = mc_auxiliary_payoff(1.0, market, 1_000_000, seed=5)
        three_sigma("auxiliary_payoff", auxiliary_payoff(1.0, market),
                    est.mean, est.stderr)


class TestThinnedPayoff:
    def test_no_thinning_at_support_floor(self, market):
        assert thinned_payoff(2.0, market, market.p_min) == auxiliary_payoff(2.0, market)

    def test_zero_at_support_ceiling(self, market):
        assert thinned_payoff(2.0, market, market.p_max) == 0.0

    def test_monotone_in_reservation(self, market):
        grid = np.linspace(market.p_min, market.p_max, 40)
        vals = [thinned_payoff(2.0, market, float(R)) for R in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_reservation_outside_support(self, market):
        with pytest.raises(ValueError):
            thinned_payoff(1.0, market, 99.0)
        with pytest.raises(ValueError):
            thinned_payoff(1.0, market, 201.0)

    def test_monte_carlo_oracle(self, market):
        from homesale.oracle import mc_auxiliary_payoff

        est = mc_auxiliary_payoff(2.0, market, 1_000_000, seed=6,
                                  reservation=R_DEFAULT)
        three_sigma("thinned_payoff", thinned_payoff(2.0, market, R_DEFAULT),
                    est.mean, est.stderr)


class TestListedPayoff:
    def test_collapses_to_thinned_at_top_list(self, market):
        assert listed_payoff(2.0, market, R_DEFAULT, market.p_max) == \
            thinned_payoff(2.0, market, R_DEFAULT)

    def test_undiscounted_long_horizon_hits_mean_above_list(self, market):
        m = MarketParams(market.lam, market.mu, 0.0, market.p_min, market.p_max)
        assert listed_payoff(500.0, m, R_DEFAULT, L_DEFAULT) == pytest.approx(
            (m.p_max + L_DEFAULT) / 2.0, rel=1e-9)

    def test_asymptote_reached_by_T50(self, market):
        asym = asymptotic_listed_payoff(market, L_DEFAULT)
        w50 = listed_payoff(50.0, market, R_DEFAULT, L_DEFAULT)
        assert abs(w50 - asym) / asym < 1e-6
        assert asym == pytest.approx(ASYMPTOTE_TABLE1, rel=1e-12)

    def test_rejects_bad_ordering(self, market):
        with pytest.raises(ValueError):
            listed_payoff(1.0, market, 150.0, 140.0)
        with pytest.raises(ValueError):
            listed_payoff(1.0, market, 90.0, 140.0)


class TestListedPayoffExact:
    def test_equals_plain_at_zero_rate(self, market):
        m = MarketParams(market.lam, market.mu, 0.0, market.p_min, market.p_max)
        for T in (0.1, 1.0, 5.0, 30.0):
            assert listed_payoff_exact(T, m, R_DEFAULT, L_DEFAULT) == \
                pytest.approx(listed_payoff(T, m, R_DEFAULT, L_DEFAULT), rel=1e-12)

    def test_same_asymptote(self, market):
        asym = asymptotic_listed_payoff(market, L_DEFAULT)
        assert listed_payoff_exact(60.0, market, R_DEFAULT, L_DEFAULT) == \
            pytest.approx(asym, rel=1e-6)

    def test_monte_carlo_oracle_and_plain_bias(self, market):
        from homesale.oracle import mc_listed_payoff

        est = mc_listed_payoff(2.0, market, R_DEFAULT, L_DEFAULT, 1_000_000, seed=8)
        three_sigma("listed_payoff_exact",
                    listed_payoff_exact(2.0, market, R_DEFAULT, L_DEFAULT),
                    est.mean, est.stderr)
        # the plain formula under-discounts crossings past T, so its gap
        # to simulation is measurable and negative
        gap = listed_payoff(2.0, market, R_DEFAULT, L_DEFAULT) - est.mean
        assert gap < -3.0 * est.stderr


class TestAsymptote:
    def test_zero_rate(self, market):
        m = MarketParams(market.lam, market.mu, 0.0, market.p_min, market.p_max)
        assert asymptotic_listed_payoff(m, L_DEFAULT) == (m.p_max + L_DEFAULT) / 2.0

    def test_zero_at_top_list(self, market):
        assert asymptotic_listed_payoff(market, market.p_max) == 0.0

    def test_reference_value(self, market):
        assert asymptotic_listed_payoff(market, L_DEFAULT) == \
            pytest.approx(ASYMPTOTE_TABLE1, rel=1e-12)

    @pytest.mark.parametrize("L", [50.0, 250.0])
    def test_rejects_list_outside_offer_support(self, market, L):
        # both listed payoffs reject these lists, so their limit must too
        with pytest.raises(ValueError):
            asymptotic_listed_payoff(market, L)


class TestExpectedUtility:
    def test_identity_without_impatience(self, market):
        assert expected_utility(2.0, market, R_DEFAULT, L_DEFAULT, 0.0) == \
            listed_payoff(2.0, market, R_DEFAULT, L_DEFAULT)

    def test_vanishes_at_short_horizon(self, market):
        assert expected_utility(1e-10, market, R_DEFAULT, L_DEFAULT,
                                GAMMA_DEFAULT) == pytest.approx(0.0, abs=1e-6)

    def test_composition(self, market):
        assert expected_utility(1.0, market, R_DEFAULT, L_DEFAULT, GAMMA_DEFAULT) == \
            math.exp(-GAMMA_DEFAULT) * listed_payoff(1.0, market, R_DEFAULT, L_DEFAULT)

    def test_exact_flag_switches_base(self, market):
        assert expected_utility(2.0, market, R_DEFAULT, L_DEFAULT, 0.0, exact=True) == \
            listed_payoff_exact(2.0, market, R_DEFAULT, L_DEFAULT)

    def test_rejects_negative_gamma(self, market):
        with pytest.raises(ValueError):
            expected_utility(1.0, market, R_DEFAULT, L_DEFAULT, -0.1)


# Every entry that takes a horizon -- closed form, path payoff, the
# batch bodies the path commands run, or the path oracle -- called on the
# reference market or the simulation-default context.
HORIZON_ENTRIES = {
    "withdrawal_fraction": lambda m, ctx, T: withdrawal_fraction(T, m.mu),
    "auxiliary_payoff": lambda m, ctx, T: auxiliary_payoff(T, m),
    "thinned_payoff": lambda m, ctx, T: thinned_payoff(T, m, R_DEFAULT),
    "thinned_payoff R=p_max": lambda m, ctx, T: thinned_payoff(T, m, m.p_max),
    "listed_payoff": lambda m, ctx, T: listed_payoff(T, m, R_DEFAULT, L_DEFAULT),
    "listed_payoff_exact": lambda m, ctx, T: listed_payoff_exact(T, m, R_DEFAULT, L_DEFAULT),
    "expected_utility": lambda m, ctx, T: expected_utility(
        T, m, R_DEFAULT, L_DEFAULT, GAMMA_DEFAULT),
    "expected_utility exact": lambda m, ctx, T: expected_utility(
        T, m, R_DEFAULT, L_DEFAULT, GAMMA_DEFAULT, exact=True),
    "conditional_payoff_changing_list": lambda m, ctx, T: pp.conditional_payoff_changing_list(
        ctx, T),
    "conditional_payoff_changing_list_exact":
        lambda m, ctx, T: pp.conditional_payoff_changing_list_exact(ctx, T),
    "conditional_payoff_constant_list": lambda m, ctx, T: pp.conditional_payoff_constant_list(
        ctx, T),
    "conditional_payoff_no_list": lambda m, ctx, T: pp.conditional_payoff_no_list(ctx, T),
    "conditional_payoff": lambda m, ctx, T: pp.conditional_payoff(ctx, T, "changing"),
    "_changing_list batch": lambda m, ctx, T: pp._evaluate(
        pp._changing_list, ctx, [ctx.path, ctx.path], T, exact=False),
    "_changing_list exact batch": lambda m, ctx, T: pp._evaluate(
        pp._changing_list, ctx, [ctx.path, ctx.path], T, exact=True),
    "_constant_list batch": lambda m, ctx, T: pp._evaluate(
        pp._constant_list, ctx, [ctx.path, ctx.path], T),
    "_no_list batch": lambda m, ctx, T: pp._evaluate(pp._no_list, ctx, [ctx.path, ctx.path], T),
    "expected_payoff": lambda m, ctx, T: pp.expected_payoff(
        table2_context, CirParams(0.25, 0.1, 0.0, 0.09), [T], 1, seed=1),
    "mc_path_payoff": lambda m, ctx, T: mc_path_payoff(ctx, T, "changing", 10, seed=1),
}


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRIES))
def test_every_horizon_entry_rejects_non_positive_horizon(market, entry, T):
    from homesale.oracle import sigma0_table2_path

    ctx = table2_context(sigma0_table2_path(2.5))
    with pytest.raises(ValueError):
        HORIZON_ENTRIES[entry](market, ctx, T)


class TestTypes:
    def test_market_params_invariants(self):
        with pytest.raises(ValueError):
            MarketParams(5, 5, 0.1, 200, 100)
        with pytest.raises(ValueError):
            MarketParams(5, 5, 0.1, 0, 100)
        with pytest.raises(ValueError):
            MarketParams(-1, 5, 0.1, 100, 200)
        with pytest.raises(ValueError):
            MarketParams(math.inf, 5, 0.1, 100, 200)


# The scalar closed forms as they were before the kernels were written over
# numpy as well: plain math and if/else, one horizon at a time.  The public
# closed forms must reproduce them bit for bit on floats.
def ref_withdrawn(x):
    if x < SMALL_ARG:
        return x * (0.5 - x * (1.0 / 6.0 - x / 24.0))
    return 1.0 + math.expm1(-x) / x


def ref_em1mx_over_x(x):
    if abs(x) < SMALL_ARG:
        return x * (0.5 + x * (1.0 / 6.0 + x / 24.0))
    return (math.expm1(x) - x) / x


def ref_best_survivor(T, lam, mu, r, lo, hi):
    x = lam * T * (1.0 - ref_withdrawn(mu * T))
    if x == 0.0:
        return 0.0
    spread = hi - lo
    if x >= 40.0:
        return math.exp(-r * T) * (hi - spread / x)
    return math.exp(-r * T - x) * (hi * math.expm1(x) - spread * ref_em1mx_over_x(x))


def ref_listed(T, m, R, L, exact):
    y = (m.p_max - L) / (m.p_max - m.p_min)
    lam_y = m.lam * y
    if lam_y <= 0.0:
        crossing = 0.0
    elif exact:
        crossing = ((m.p_max + L) / 2.0) * lam_y * -math.expm1(-(lam_y + m.r) * T) / (lam_y + m.r)
    else:
        crossing = -math.expm1(-lam_y * T) * ((m.p_max + L) / 2.0) * (lam_y / (lam_y + m.r))
    in_band = ref_best_survivor(T, m.lam * ((L - R) / (m.p_max - m.p_min)), m.mu, m.r, R, L)
    return crossing + math.exp(-lam_y * T) * in_band


# public closed form -> (reference, natural scale of its value given the market)
KERNEL_PAIRS = {
    "withdrawal_fraction": (lambda T, m, R, L, g: withdrawal_fraction(T, m.mu),
                            lambda T, m, R, L, g: ref_withdrawn(m.mu * T),
                            lambda m: 1.0),
    "auxiliary_payoff": (lambda T, m, R, L, g: auxiliary_payoff(T, m),
                         lambda T, m, R, L, g: ref_best_survivor(T, m.lam, m.mu, m.r,
                                                                 m.p_min, m.p_max),
                         lambda m: m.p_max),
    "thinned_payoff": (lambda T, m, R, L, g: thinned_payoff(T, m, R),
                       lambda T, m, R, L, g: ref_best_survivor(
                           T, m.lam * (m.p_max - R) / (m.p_max - m.p_min), m.mu, m.r,
                           R, m.p_max),
                       lambda m: m.p_max),
    "listed_payoff": (lambda T, m, R, L, g: listed_payoff(T, m, R, L),
                      lambda T, m, R, L, g: ref_listed(T, m, R, L, False),
                      lambda m: m.p_max),
    "listed_payoff_exact": (lambda T, m, R, L, g: listed_payoff_exact(T, m, R, L),
                            lambda T, m, R, L, g: ref_listed(T, m, R, L, True),
                            lambda m: m.p_max),
    "expected_utility": (lambda T, m, R, L, g: expected_utility(T, m, R, L, g),
                         lambda T, m, R, L, g: math.exp(-g * T) * ref_listed(T, m, R, L, False),
                         lambda m: m.p_max),
    "expected_utility exact": (
        lambda T, m, R, L, g: expected_utility(T, m, R, L, g, exact=True),
        lambda T, m, R, L, g: math.exp(-g * T) * ref_listed(T, m, R, L, True),
        lambda m: m.p_max),
}


def kernel_cases(n=1500, seed=20261018):
    """(T, market, R, L, gamma) draws that cross every branch switch:
    lam = 0 and mu = 0, mu*T and x on both sides of SMALL_ARG, x beyond
    _LARGE_ARG, r = 0, L = R and L = p_max, and T far from the grid."""
    rng = np.random.default_rng(seed)

    def pick(*options):
        return float(options[rng.integers(len(options))])

    cases = []
    for _ in range(n):
        p_min = float(rng.uniform(1.0, 150.0))
        p_max = p_min + pick(1e-3, rng.uniform(1.0, 150.0))
        R = pick(p_min, p_max, rng.uniform(p_min, p_max))
        L = pick(R, p_max, rng.uniform(R, p_max))
        m = MarketParams(pick(0.0, 1e-7, rng.uniform(0.0, 20.0), rng.uniform(0.0, 2000.0)),
                         pick(0.0, 1e-9, rng.uniform(0.0, 20.0), 1e5),
                         pick(0.0, rng.uniform(0.0, 0.5)), p_min, p_max)
        T = pick(1e-9, 1e-5, rng.uniform(0.0, 20.0), rng.uniform(0.0, 200.0))
        cases.append((max(T, 1e-12), m, R, L, pick(0.0, rng.uniform(0.0, 2.0))))
    return cases


KERNEL_CASES = kernel_cases()


def test_kernel_cases_cross_every_branch_switch():
    x_in_band = [T * m.lam * ((L - R) / (m.p_max - m.p_min)) * (1.0 - ref_withdrawn(m.mu * T))
                 for T, m, R, L, _ in KERNEL_CASES]
    mu_T = [m.mu * T for T, m, *_ in KERNEL_CASES]
    assert any(m.lam == 0.0 for _, m, *_ in KERNEL_CASES)
    assert any(m.mu == 0.0 for _, m, *_ in KERNEL_CASES)
    assert any(m.r == 0.0 for _, m, *_ in KERNEL_CASES)
    assert any(0.0 < v < SMALL_ARG for v in mu_T) and any(v >= SMALL_ARG for v in mu_T)
    assert any(0.0 < v < SMALL_ARG for v in x_in_band)
    assert any(SMALL_ARG <= v < 40.0 for v in x_in_band)
    assert any(v >= 40.0 for v in x_in_band)
    assert any(L == R for _, _, R, L, _ in KERNEL_CASES)
    assert any(L == m.p_max for _, m, _, L, _ in KERNEL_CASES)


@pytest.mark.parametrize("name", sorted(KERNEL_PAIRS))
def test_public_closed_form_is_bitwise_the_scalar_reference(name):
    public, reference, _ = KERNEL_PAIRS[name]
    for case in KERNEL_CASES:
        got, want = public(*case), reference(*case)
        assert type(got) is float
        assert got.hex() == want.hex(), (name, case, got, want)


@pytest.mark.parametrize("name", sorted(KERNEL_PAIRS))
def test_array_horizon_matches_the_float_path(name):
    # numpy's exp and expm1 may differ from math's by an ulp, and terms
    # that cancel (1 - withdrawal_fraction at large mu*T, or
    # (e^x - 1 - x)/x just above SMALL_ARG) can turn that into many ulps
    # of a small result; so the bound is 4 ulps of the scale the value is
    # computed at: 1 for a probability, p_max for a payoff
    public, _, scale = KERNEL_PAIRS[name]
    for T, m, R, L, g in KERNEL_CASES:
        Ts = np.array([T, 0.5 * T, 2.0 * T])
        got = public(Ts, m, R, L, g)
        assert got.shape == Ts.shape
        for t, v in zip(Ts, got):
            want = public(float(t), m, R, L, g)
            assert abs(v - want) <= 4 * math.ulp(scale(m)), (name, t, m, R, L, g, v, want)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(KERNEL_PAIRS))
def test_array_horizon_rejects_any_bad_element(market, name, bad):
    public, _, _ = KERNEL_PAIRS[name]
    with pytest.raises(ValueError, match="T must be"):
        public(np.array([1.0, bad, 2.0]), market, R_DEFAULT, L_DEFAULT, GAMMA_DEFAULT)
