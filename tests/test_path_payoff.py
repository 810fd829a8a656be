import dataclasses
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_sigma
from homesale.closed_form import MarketParams, thinned_payoff
from homesale.oracle import mc_path_payoff, sigma0_table2_path, table2_context
from homesale import path_payoff
from homesale.path_payoff import (DEFAULT_NODES, ExponentialWithdrawals, PathContext,
                                  UniformOffers, _above_list_hazard, _arrival_mean,
                                  _arrivals, _offer_tail,
                                  conditional_payoff_changing_list,
                                  conditional_payoff_changing_list_exact,
                                  conditional_payoff_constant_list,
                                  conditional_payoff_no_list, expected_payoff)
from homesale.path_payoff import simpson_nodes
from homesale.stochastic import (DEFAULT_DT, CirParams, DemandParams, RatePath,
                                 simulate_cir, substream)

EPS = sys.float_info.epsilon


@pytest.fixture
def decay_ctx():
    """Simulation defaults: decaying list on the zero-vol rate path."""
    return table2_context(sigma0_table2_path(2.5))


@pytest.fixture
def const_ctx():
    return table2_context(sigma0_table2_path(2.5), constant_list=True)


def flat_rate_ctx(list_price=200.0, withdrawals=None, reservation=140.0,
                  demand=None, horizon=2.5):
    """Constant rate 0.1 and a flat list; defaults give a constant offer
    intensity of 5."""
    n = int(horizon / 0.005)
    path = RatePath(0.005, np.full(n + 1, 0.1))
    return PathContext(
        path=path, list_price=list_price, zeta=0.0,
        offers=UniformOffers(100.0, 200.0),
        withdrawals=withdrawals if withdrawals is not None else ExponentialWithdrawals(5.0),
        reservation=reservation,
        demand=demand if demand is not None else DemandParams(0.0, 1000.0))


def clamped_below(arr, ctx):
    """The below-list chance _changing_list reads on the arrival grid arr:
    _arrival_mean of F(L(a)), clamped to [0, 1], per live path."""
    F_L = ctx.offers.cdf(ctx.list_at(arr.a))
    return [min(max(float(m), 0.0), 1.0) for m in _arrival_mean(arr, F_L)]


def below_list(ctx, t):
    """clamped_below on the one-path arrival grid of ctx."""
    return clamped_below(_arrivals(ctx, [ctx.path], t), ctx)[0]


def offer_tail(ctx, t, ys):
    """_offer_tail at the 1-D y values ys on the one-path arrival grid, given
    the F(L(a)) that _changing_list hands it."""
    arr = _arrivals(ctx, [ctx.path], t)
    return _offer_tail(arr, ctx.offers.cdf(ctx.list_at(arr.a)))(np.asarray(ys, float))[0]


def band_tail(ctx, t, ys):
    """The O(n^2) survivor tail the sorted suffix sums replaced: the offer
    cdf taken on the full (y, a) grid of max(L(a), y)."""
    a, w = simpson_nodes(0.0, t, DEFAULT_NODES)
    lam = ctx.intensity(a)
    big_lam = float(w @ lam)
    L_a = ctx.list_at(a)
    standing = 1.0 - ctx.withdrawals.cdf(t - a)
    band = (ctx.offers.cdf(np.maximum(L_a[None, :], ys[:, None]))
            - ctx.offers.cdf(np.maximum(ctx.reservation, ys))[:, None])
    want = (lam[None, :] * standing[None, :] * band) @ w / big_lam
    return np.where(ys >= ctx.list_price, 0.0, np.clip(want, 0.0, 1.0))


@st.composite
def tail_cases(draw):
    """(context, horizon, sorted y values) over offer supports, R <= L0,
    list decay, withdrawal intensity and flat rate levels."""
    p_min = draw(st.floats(1.0, 500.0))
    p_max = p_min + draw(st.floats(1.0, 500.0))
    R = draw(st.floats(0.5 * p_min, p_max))
    L0 = R + draw(st.floats(0.0, 1.0)) * (1.2 * p_max - R)
    zeta = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    mu = draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
    t = draw(st.floats(1e-3, 5.0))
    path = RatePath(0.01, np.full(int(math.ceil(t / 0.01)) + 1, draw(st.floats(1e-3, 0.3))))
    ctx = PathContext(path=path, list_price=L0, zeta=zeta,
                      offers=UniformOffers(p_min, p_max),
                      withdrawals=ExponentialWithdrawals(mu), reservation=R,
                      demand=DemandParams(0.5, 1000.0))
    ys = draw(st.lists(st.floats(0.0, 1.3 * p_max), min_size=1, max_size=40))
    kinks = [R, L0, float(ctx.list_at(t)), p_min, p_max]
    return ctx, t, np.sort(np.concatenate((ys, kinks)))


def pooled_offers(ctx, t, n_offers, seed):
    """iid (arrival, value, delay) triples with arrival density lam/Lambda."""
    rng = substream(seed, "pooled")
    grid = np.linspace(0.0, t, 1001)
    bound = float(np.max(ctx.intensity(grid))) * 1.000001
    arrivals = []
    while sum(a.size for a in arrivals) < n_offers:
        cand = rng.uniform(0.0, t, 4 * n_offers)
        keep = rng.uniform(0.0, 1.0, cand.size) * bound < ctx.intensity(cand)
        arrivals.append(cand[keep])
    a = np.concatenate(arrivals)[:n_offers]
    values = ctx.offers.sample(rng, n_offers)
    delays = ctx.withdrawals.sample(rng, n_offers)
    return a, values, delays


class TestUniformOffers:
    @pytest.mark.parametrize("p_min,p_max", [(100.0, math.inf), (-math.inf, 200.0),
                                             (100.0, math.nan), (math.nan, 200.0),
                                             (math.inf, math.inf)])
    def test_rejects_non_finite_support(self, p_min, p_max):
        with pytest.raises(ValueError, match="finite"):
            UniformOffers(p_min, p_max)


class TestExponentialWithdrawals:
    @pytest.mark.parametrize("mu", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite(self, mu):
        with pytest.raises(ValueError):
            ExponentialWithdrawals(mu)

    def test_zero_intensity_never_withdraws_and_draws_nothing(self):
        w = ExponentialWithdrawals(0.0)
        assert np.array_equal(w.cdf([-1.0, 0.0, 0.5, 100.0]), np.zeros(4))
        rng, fresh = substream(9, "mu0"), substream(9, "mu0")
        assert np.all(np.isinf(w.sample(rng, 5)))
        assert np.isinf(w.sample(rng))
        assert rng.uniform() == fresh.uniform()


class TestPathContext:
    @pytest.mark.parametrize("list_price,zeta,reservation", [
        (math.nan, 1.0, 140.0), (math.inf, 1.0, 140.0),   # L0 not finite
        (130.0, 1.0, 140.0),                              # L0 < R
        (200.0, math.nan, 140.0), (200.0, math.inf, 140.0),
        (200.0, -0.5, 140.0),                             # zeta not finite or < 0
        (200.0, 1.0, 0.0), (200.0, 1.0, math.nan),        # R not positive
    ])
    def test_rejects_a_list_that_could_rise_or_fall_below_r(self, list_price, zeta,
                                                             reservation):
        with pytest.raises(ValueError):
            dataclasses.replace(flat_rate_ctx(), list_price=list_price, zeta=zeta,
                                reservation=reservation)

    def test_is_frozen(self):
        ctx = flat_rate_ctx()
        with pytest.raises(AttributeError):
            ctx.list_price = 100.0


class TestBelowListProbability:
    def test_list_at_top_of_support(self):
        ctx = flat_rate_ctx()
        assert below_list(ctx, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_list_collapses_to_cdf(self):
        ctx = flat_rate_ctx(list_price=180.0)
        assert below_list(ctx, 1.0) == pytest.approx(0.8, rel=1e-10)

    def test_against_pooled_simulation(self, decay_ctx):
        a, values, _ = pooled_offers(decay_ctx, 1.0, 400_000, seed=3)
        hits = (values < decay_ctx.list_at(a)).astype(float)
        three_sigma("below-list prob", below_list(decay_ctx, 1.0),
                    hits.mean(), hits.std(ddof=1) / math.sqrt(hits.size))

    def test_zero_mass_path_is_left_out(self):
        # Lambda(t) = 0 where no offer can arrive by t (k1 = 5e-324 at
        # r = 3): _arrivals marks the path dead, so _arrival_mean never
        # divides by its mass and gives the live path its one-path value
        ctx = dataclasses.replace(flat_rate_ctx(list_price=180.0),
                                  demand=DemandParams(5e-324, 0.0))
        dead = dataclasses.replace(ctx, path=RatePath(0.005, np.full(501, 3.0)))
        live = dataclasses.replace(ctx, path=RatePath(0.005, np.zeros(501)))
        arr = _arrivals(ctx, [dead.path, live.path, dead.path], 1.0)
        assert arr.live.tolist() == [False, True, False]
        assert clamped_below(arr, ctx) == [below_list(live, 1.0)]


class TestSurvivingOfferTail:
    def test_zero_above_initial_list(self, decay_ctx):
        assert offer_tail(decay_ctx, 1.0, [200.0, 250.0]).tolist() == [0.0, 0.0]

    def test_no_withdrawals_constant_list(self):
        ctx = flat_rate_ctx(list_price=180.0, withdrawals=ExponentialWithdrawals(0.0))
        # value band (140, 180) of a uniform on (100, 200)
        assert offer_tail(ctx, 1.0, [0.0])[0] == pytest.approx(0.4, rel=1e-10)

    def test_against_pooled_simulation(self, decay_ctx):
        y = 150.0
        t = 1.0
        a, values, delays = pooled_offers(decay_ctx, t, 400_000, seed=4)
        L_a = decay_ctx.list_at(a)
        product = values * ((values >= 140.0) & (values < L_a)) * (delays >= t - a)
        hits = (product > y).astype(float)
        three_sigma("survivor tail", offer_tail(decay_ctx, t, [y])[0],
                    hits.mean(), hits.std(ddof=1) / math.sqrt(hits.size))

    def test_dominated_by_below_list_probability(self, decay_ctx):
        phi = below_list(decay_ctx, 1.5)
        ys = np.linspace(0.0, 210.0, 64)
        tails = offer_tail(decay_ctx, 1.5, ys)
        assert np.all(tails <= phi + 1e-12)
        assert np.all(tails >= 0.0)
        assert np.all(np.diff(tails) <= 1e-12)

    @pytest.mark.parametrize("t", [1e-3, 0.3, 1.3, 2.5])
    def test_pinned_to_direct_band_formula(self, decay_ctx, t):
        # the tail is a probability, so the pin is absolute: near-zero
        # tails differ by more ulps than their size makes worth counting
        ys = np.concatenate((np.linspace(0.0, 210.0, 4001), [140.0, 150.0, 199.999]))
        got = offer_tail(decay_ctx, t, ys)
        assert np.max(np.abs(got - band_tail(decay_ctx, t, ys))) <= 4 * EPS

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tail_cases())
    def test_tail_properties(self, case):
        # both forms sum DEFAULT_NODES non-negative terms of total <= 1 in
        # a different order; the largest gap measured over 4,000 random
        # cases of this domain is 22.5 eps (a flat list without
        # withdrawals), so 32 eps pins it with a little room.
        # At each break of the sorted F(L(a)) the suffix sums hand over
        # exactly, so the tail never rises, not even by an ulp.
        ctx, t, ys = case
        got = offer_tail(ctx, t, ys)
        assert np.max(np.abs(got - band_tail(ctx, t, ys))) <= 32 * EPS
        assert np.all(np.diff(got) <= 0.0)
        assert np.all(got[ys >= ctx.list_price] == 0.0)
        assert np.all(got <= below_list(ctx, t) + 1e-12)


class TestCrossingSurvival:
    def test_three_offer_runs(self, decay_ctx):
        from homesale.stochastic import sample_nhpp

        t = 0.3
        rng = substream(11, "three-offer")
        grid = np.linspace(0.0, t, 301)
        bound = float(np.max(decay_ctx.intensity(grid))) * 1.000001
        hits = []
        for _ in range(30_000):
            arrivals = sample_nhpp(decay_ctx.intensity, t, bound, rng)
            if arrivals.size != 3:
                continue
            values = decay_ctx.offers.sample(rng, 3)
            hits.append(float(np.all(values < decay_ctx.list_at(arrivals))))
        hits = np.array(hits)
        assert hits.size > 2000
        three_sigma("no-crossing given 3 offers", below_list(decay_ctx, t) ** 3,
                    hits.mean(), hits.std(ddof=1) / math.sqrt(hits.size))


class TestConditionalPayoffs:
    def test_changing_equals_constant_for_constant_schedule(self, const_ctx):
        for t in (0.5, 1.0, 2.0):
            a = conditional_payoff_changing_list(const_ctx, t)
            b = conditional_payoff_constant_list(const_ctx, t)
            assert a == pytest.approx(b, rel=1e-10)

    def test_tiny_horizon_pays_nothing(self, decay_ctx):
        # the payoff decays linearly with the horizon near zero
        assert conditional_payoff_changing_list(decay_ctx, 1e-6) < 2e-3
        assert conditional_payoff_no_list(decay_ctx, 1e-6) < 2e-3
        assert conditional_payoff_changing_list(decay_ctx, 1e-8) < 2e-5

    def test_no_list_embeds_closed_form(self):
        # constant rate and intensity, uniform values, exponential
        # withdrawals: the quadrature evaluation must land on the exact
        # algebra of the waiting-only model
        ctx = flat_rate_ctx()
        m = MarketParams(5.0, 5.0, 0.1, 100.0, 200.0)
        want = thinned_payoff(2.0, m, 140.0)
        got = conditional_payoff_no_list(ctx, 2.0)
        assert got == pytest.approx(want, rel=1e-7)

    def test_constant_list_at_top_of_support_embeds_closed_form(self):
        ctx = flat_rate_ctx()
        m = MarketParams(5.0, 5.0, 0.1, 100.0, 200.0)
        want = thinned_payoff(2.0, m, 140.0)
        assert conditional_payoff_constant_list(ctx, 2.0) == pytest.approx(want, rel=1e-7)

    def test_reservation_at_list_ignores_withdrawals(self):
        # empty in-band region: only the crossing branch remains, which
        # never depends on the withdrawal law
        a = conditional_payoff_constant_list(
            flat_rate_ctx(list_price=180.0, reservation=180.0), 1.5)
        b = conditional_payoff_constant_list(
            flat_rate_ctx(list_price=180.0, reservation=180.0,
                          withdrawals=ExponentialWithdrawals(0.0)), 1.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_no_list_zero_when_reservation_tops_support(self):
        ctx = flat_rate_ctx(list_price=220.0, reservation=220.0)
        assert conditional_payoff_no_list(ctx, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_no_list(self, decay_ctx):
        est = mc_path_payoff(decay_ctx, 1.0, "none", 200_000, seed=21)
        three_sigma("no-list payoff", conditional_payoff_no_list(decay_ctx, 1.0),
                    est.mean, est.stderr)

    def test_monte_carlo_constant_list(self, const_ctx):
        est = mc_path_payoff(const_ctx, 1.0, "constant", 200_000, seed=22)
        three_sigma("constant-list payoff",
                    conditional_payoff_constant_list(const_ctx, 1.0),
                    est.mean, est.stderr)

    def test_bounded(self, decay_ctx, const_ctx):
        for t in (0.25, 1.0, 2.0):
            for v in (conditional_payoff_changing_list(decay_ctx, t),
                      conditional_payoff_changing_list_exact(decay_ctx, t),
                      conditional_payoff_constant_list(const_ctx, t),
                      conditional_payoff_no_list(decay_ctx, t)):
                assert 0.0 <= v <= 200.0

    def test_quadrature_converged_at_default_nodes(self, decay_ctx, monkeypatch):
        for fn in (conditional_payoff_changing_list, conditional_payoff_changing_list_exact,
                   conditional_payoff_no_list):
            monkeypatch.setattr(path_payoff, "DEFAULT_NODES", 201)
            coarse = fn(decay_ctx, 2.0)
            monkeypatch.setattr(path_payoff, "DEFAULT_NODES", 401)
            fine = fn(decay_ctx, 2.0)
            assert abs(coarse - fine) / fine < 1e-6


class TestExactChangingList:
    def test_equals_constant_list_at_top_of_support(self, const_ctx):
        # a flat list at p_max admits no crossing, where the constant-list
        # formula is exact
        for t in (0.5, 1.0, 2.0):
            a = conditional_payoff_changing_list_exact(const_ctx, t)
            b = conditional_payoff_constant_list(const_ctx, t)
            assert a == pytest.approx(b, rel=1e-10)

    def test_hazard_reproduces_no_crossing_chance(self, decay_ctx):
        # exp(-H(t)) from the running hazard and the closed exp(Lambda
        # (phi - 1)) of the no-crossing branch are two quadratures of the
        # same chance
        for t in (0.5, 1.0, 2.0):
            a, w = simpson_nodes(0.0, t, DEFAULT_NODES)
            big_lam = float(w @ decay_ctx.intensity(a))
            no_cross = math.exp(big_lam * (below_list(decay_ctx, t) - 1.0))
            hazard = _above_list_hazard(_arrivals(decay_ctx, [decay_ctx.path], t),
                                        decay_ctx.list_at)[0]
            assert hazard.shape == w.shape
            assert np.all(np.diff(hazard) >= 0.0)
            assert math.exp(-hazard[-1]) == pytest.approx(no_cross, rel=1e-8)

    def test_monte_carlo_flat_list_below_top(self):
        # a flat list at 180 lets offers cross, so the first crossing's
        # timing matters; the constant-list simulation is the oracle
        ctx = table2_context(sigma0_table2_path(2.5), constant_list=True,
                             initial_list=180.0)
        for t in (0.5, 1.0, 2.0):
            est = mc_path_payoff(ctx, t, "constant", 200_000, seed=23)
            for fn in (conditional_payoff_changing_list_exact,
                       conditional_payoff_constant_list):
                three_sigma(f"{fn.__name__}, L=180, t={t}", fn(ctx, t),
                            est.mean, est.stderr)

    def test_rejects_non_positive_horizon(self, decay_ctx):
        with pytest.raises(ValueError):
            conditional_payoff_changing_list_exact(decay_ctx, 0.0)


def test_poisson_count_weighting_identity():
    # the code paths sum over offer counts through the closed exponential
    # form; verify it against the truncated series
    for q in (0.3, 0.9):
        for big_lam in (1.0, 10.0):
            series = sum(math.exp(-big_lam + n * math.log(big_lam) - math.lgamma(n + 1))
                         * q ** n for n in range(200))
            assert series == pytest.approx(math.exp(big_lam * (q - 1.0)), rel=1e-8)


class TestExpectedPayoff:
    def ctx_factory(self, zeta=1.0):
        demand = DemandParams(0.5, 1000.0)
        offers = UniformOffers(100.0, 200.0)
        withdrawals = ExponentialWithdrawals(10.0)

        def factory(path):
            return PathContext(path=path, list_price=200.0, zeta=zeta, offers=offers,
                               withdrawals=withdrawals, reservation=140.0,
                               demand=demand)

        return factory

    def test_zero_vol_collapses_to_single_path(self, sim_cir):
        frozen = CirParams(sim_cir.kappa, sim_cir.theta, 0.0, sim_cir.r0)
        mean, stderr = expected_payoff(self.ctx_factory(), frozen, [1.0], 16, seed=1,
                                       mode="none")
        assert stderr[0] == 0.0
        path = sigma0_table2_path(1.5)
        single = conditional_payoff_no_list(table2_context(path), 1.0)
        assert mean[0] == pytest.approx(single, rel=1e-10)

    def test_seed_stability(self, sim_cir):
        m1, s1 = expected_payoff(self.ctx_factory(), sim_cir, [1.0], 300, seed=1,
                                 mode="changing")
        m2, s2 = expected_payoff(self.ctx_factory(), sim_cir, [1.0], 300, seed=2,
                                 mode="changing")
        assert abs(m1[0] - m2[0]) <= 3.0 * math.hypot(s1[0], s2[0])

    def test_clt_scaling(self, sim_cir):
        _, s1 = expected_payoff(self.ctx_factory(), sim_cir, [1.0], 300, seed=3,
                                mode="none")
        _, s2 = expected_payoff(self.ctx_factory(), sim_cir, [1.0], 600, seed=3,
                                mode="none")
        assert s2[0] / s1[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    def test_rejects_zero_paths(self, sim_cir):
        with pytest.raises(ValueError, match="n_paths must be >= 1, got 0"):
            expected_payoff(self.ctx_factory(), sim_cir, [1.0], 0, seed=0)

    def test_single_path_is_path_zero(self, sim_cir):
        times = [0.5, 1.0]
        means, stderrs = expected_payoff(self.ctx_factory(), sim_cir, times, 1, seed=4)
        assert stderrs.tolist() == [0.0, 0.0]
        ctx = self.ctx_factory()(simulate_cir(sim_cir, 1.0, DEFAULT_DT,
                                              substream(4, "payoff-path", 0)))
        assert means.tolist() == [conditional_payoff_changing_list(ctx, t) for t in times]

    @pytest.mark.parametrize("mode", ["changing", "none"])
    def test_horizon_value_independent_of_grid(self, sim_cir, mode):
        times = [0.5, 1.0, 2.0]
        means, stderrs = expected_payoff(self.ctx_factory(), sim_cir, times, 6,
                                         seed=7, mode=mode)
        assert means.shape == stderrs.shape == (3,)
        for k, t in enumerate(times):
            m, s = expected_payoff(self.ctx_factory(), sim_cir, [t], 6, seed=7, mode=mode)
            assert means[k] == m[0] and stderrs[k] == s[0]

    def test_shared_grids_leak_nothing(self, sim_cir):
        # a horizon's grids are shared by every path of its batch.  Each
        # horizon's value, computed alone, must come out to the last bit
        # when two contexts with different lists, offers and withdrawals
        # take turns, on reordered and extended horizon grids
        times, mine = [0.5, 1.0, 2.0], self.ctx_factory()

        def other(path, zeta=2.0):
            return PathContext(path=path, list_price=240.0, zeta=zeta,
                               offers=UniformOffers(120.0, 260.0),
                               withdrawals=ExponentialWithdrawals(3.0),
                               reservation=150.0, demand=DemandParams(0.5, 1000.0))

        def run(factory, grid, mode):
            m, s = expected_payoff(factory, sim_cir, grid, 3, seed=7, mode=mode)
            return {t: (m[k], s[k]) for k, t in enumerate(grid)}

        for mode in ("changing", "constant", "none"):
            # the constant-list mode needs a flat list
            pair = ((self.ctx_factory(zeta=0.0), partial(other, zeta=0.0))
                    if mode == "constant" else (mine, other))
            alone = {(factory, t): run(factory, [t], mode)[t]
                     for factory in pair for t in times}
            for grid in ([0.25, *times, 1.5], [2.0, 1.0, 0.5],
                         [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5]):
                for factory in pair[::-1]:
                    got = run(factory, grid, mode)
                    assert all(got[t] == alone[factory, t] for t in times), (mode, grid)

    def test_grids_built_once_per_horizon(self, sim_cir, monkeypatch):
        # one body call per horizon and chunk of paths builds the arrival
        # grid once for all its paths, not once per (path, horizon)
        built = []

        def counted(ctx, paths, t):
            built.append(len(paths))
            return _arrivals(ctx, paths, t)

        monkeypatch.setattr(path_payoff, "_arrivals", counted)
        for chunk, calls in ((256, 40), (2, 120)):
            monkeypatch.setattr(path_payoff, "_CHUNK", chunk)
            built.clear()
            expected_payoff(self.ctx_factory(), sim_cir, np.linspace(0.05, 2.0, 40), 5,
                            seed=3)
            assert len(built) == calls and sum(built) == 40 * 5 and max(built) <= chunk

    def test_empty_grid(self, sim_cir):
        means, stderrs = expected_payoff(self.ctx_factory(), sim_cir, [], 4, seed=0)
        assert means.shape == stderrs.shape == (0,)


# Each mode's batch body, evaluated on one context and its paths, and the
# one-path public function that is its one-path case.
BODIES = [
    (partial(path_payoff._evaluate, path_payoff._changing_list, exact=False),
     conditional_payoff_changing_list),
    (partial(path_payoff._evaluate, path_payoff._changing_list, exact=True),
     conditional_payoff_changing_list_exact),
    (path_payoff._evaluate_constant, conditional_payoff_constant_list),
    (partial(path_payoff._evaluate, path_payoff._no_list), conditional_payoff_no_list),
]


@st.composite
def path_batches(draw):
    """(context, its paths, horizon): CIR paths of different lengths that
    all cover t, one of them floored at zero, so below RATE_FLOOR, at its
    first node and after every third.  The context carries the first
    path, which the batch does not read."""
    p_min = draw(st.floats(50.0, 150.0))
    p_max = p_min + draw(st.floats(10.0, 150.0))
    R = draw(st.floats(0.8 * p_min, p_max))
    L0 = R + draw(st.floats(0.0, 1.0)) * (1.2 * p_max - R)
    t = draw(st.floats(1e-3, 2.0))
    dt = draw(st.sampled_from([DEFAULT_DT, 0.01, 0.1]))
    cir = CirParams(kappa=draw(st.floats(0.05, 2.0)), theta=draw(st.floats(0.005, 0.2)),
                    sigma=draw(st.floats(0.0, 0.8)), r0=draw(st.floats(1e-3, 0.2)))
    seed = draw(st.integers(0, 2**32 - 1))
    paths = [simulate_cir(cir, max(t, dt) + draw(st.floats(0.0, 1.0)), dt,
                          substream(seed, "batch", i))
             for i in range(draw(st.integers(1, 6)))]
    floored = paths[0].values.copy()
    floored[::3] = 0.0
    paths.insert(draw(st.integers(0, len(paths))), RatePath(dt, floored))
    offers = UniformOffers(p_min, p_max)
    withdrawals = ExponentialWithdrawals(draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))))
    demand = DemandParams(draw(st.floats(0.0, 1.0)), draw(st.floats(1.0, 2000.0)))
    zeta = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    ctx = PathContext(path=paths[0], list_price=L0, zeta=zeta, offers=offers,
                      withdrawals=withdrawals, reservation=R, demand=demand)
    return ctx, paths, t


class TestBatchBodies:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(path_batches())
    def test_batch_equals_one_path(self, case):
        # every path's value in a batch is its one-path value to the bit,
        # whatever its row, its length or the other paths
        ctx, paths, t = case
        for body, one_path in BODIES:
            # the constant-list mode needs a flat list
            c = (dataclasses.replace(ctx, zeta=0.0)
                 if one_path is conditional_payoff_constant_list else ctx)
            got = body(c, paths, t)
            assert got.shape == (len(paths),)
            assert got.tolist() == [one_path(dataclasses.replace(c, path=p), t)
                                    for p in paths]

    def test_path_without_offers_pays_zero_in_a_batch(self):
        # k1 = 5e-324 makes lam(a) exactly 0 where r >= 2, while a path
        # floored at RATE_FLOOR still gets offers
        ctx = dataclasses.replace(flat_rate_ctx(list_price=180.0),
                                  demand=DemandParams(5e-324, 0.0))
        dead = dataclasses.replace(ctx, path=RatePath(0.005, np.full(501, 3.0)))
        live = dataclasses.replace(ctx, path=RatePath(0.005, np.zeros(501)))
        for body, one_path in BODIES:
            assert one_path(dead, 1.0) == 0.0
            got = body(ctx, [dead.path, live.path, dead.path], 1.0)
            assert got.tolist() == [0.0, one_path(live, 1.0), 0.0]

    @pytest.mark.parametrize("change", [{"list_price": 190.0}, {"zeta": 0.5},
                                        {"reservation": 130.0},
                                        {"withdrawals": ExponentialWithdrawals(2.0)}])
    def test_contexts_differing_beyond_path_raise(self, sim_cir, change):
        # the factory is the one place contexts come from user code: a
        # context that differs from the first of its chunk in anything but
        # its path raises, whatever the mode
        def factory(path):
            ctx = table2_context(path)
            built.append(ctx)
            return ctx if len(built) == 1 else dataclasses.replace(ctx, **change)

        for mode in ("changing", "constant", "none"):
            built = []
            with pytest.raises(ValueError, match="differ only in path"):
                expected_payoff(factory, sim_cir, [1.0], 2, seed=1, mode=mode)

    def test_contexts_differing_across_chunks_raise(self, sim_cir):
        # path 256 opens the second chunk; its list price differs from the
        # first chunk's, which no comparison within one chunk can see
        def factory(path):
            built.append(path)
            ctx = table2_context(path)
            return ctx if len(built) <= 256 else dataclasses.replace(ctx, list_price=190.0)

        built = []
        assert path_payoff._CHUNK == 256
        with pytest.raises(ValueError, match="differ only in path"):
            expected_payoff(factory, sim_cir, [1.0], 257, seed=1)

    @pytest.mark.parametrize("mode", ["changing", "constant", "none"])
    @pytest.mark.parametrize("n_paths", [1, 3, 4])
    def test_chunks_equal_one_path(self, sim_cir, monkeypatch, mode, n_paths):
        # with three paths a chunk: one path, one full chunk, and a full
        # chunk plus one
        monkeypatch.setattr(path_payoff, "_CHUNK", 3)
        # the constant-list mode needs a flat list
        factory = TestExpectedPayoff().ctx_factory(zeta=0.0 if mode == "constant" else 1.0)
        times = [0.3, 1.0, 1.7]
        means, stderrs = expected_payoff(factory, sim_cir, times, n_paths, seed=5, mode=mode)
        ctxs = [factory(simulate_cir(sim_cir, 1.7, DEFAULT_DT, substream(5, "payoff-path", i)))
                for i in range(n_paths)]
        one_path = {"changing": conditional_payoff_changing_list,
                    "constant": conditional_payoff_constant_list,
                    "none": conditional_payoff_no_list}[mode]
        for k, t in enumerate(times):
            vals = np.array([one_path(ctx, t) for ctx in ctxs])
            assert means[k] == np.mean(vals)
            if n_paths > 1:
                assert stderrs[k] == np.std(vals, ddof=1) / math.sqrt(n_paths)


# The entries of the constant-list mode, each at t = 1 on the context ctx.
CONSTANT_ENTRIES = {
    "conditional_payoff_constant_list": lambda ctx, cir: conditional_payoff_constant_list(
        ctx, 1.0),
    "conditional_payoff": lambda ctx, cir: path_payoff.conditional_payoff(ctx, 1.0, "constant"),
    "expected_payoff": lambda ctx, cir: expected_payoff(
        lambda p: dataclasses.replace(ctx, path=p), cir, [1.0], 2, seed=1, mode="constant"),
}


class TestFlatListOnly:
    """The constant-list body plays a flat list against the intensity of
    ctx.list_at.  At zeta = 1 it returned 171.6845 at t = 1, a value of
    neither model, so the mode rejects zeta != 0."""

    @pytest.fixture
    def ctx(self):
        ctx = table2_context(sigma0_table2_path(2.1), initial_list=180.0)
        assert ctx.zeta == 1.0
        return ctx

    @pytest.mark.parametrize("entry", sorted(CONSTANT_ENTRIES))
    def test_every_entry_rejects_a_decaying_list(self, ctx, sim_cir, entry):
        with pytest.raises(ValueError, match="zeta == 0, got zeta=1.0"):
            CONSTANT_ENTRIES[entry](ctx, sim_cir)

    def test_rejects_it_where_no_offer_arrives(self, ctx):
        # k1 = 5e-324 makes lam(a) exactly 0 on a path at rate 3
        dead = dataclasses.replace(ctx, path=RatePath(0.005, np.full(501, 3.0)),
                                   demand=DemandParams(5e-324, 0.0))
        assert conditional_payoff_no_list(dead, 1.0) == 0.0
        with pytest.raises(ValueError, match="zeta == 0, got zeta=1.0"):
            conditional_payoff_constant_list(dead, 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_horizon_is_checked_first(self, ctx, t):
        with pytest.raises(ValueError, match="t must be positive"):
            conditional_payoff_constant_list(ctx, t)

    def test_flat_list_is_the_exact_changing_list(self, ctx):
        # 169.9660 at zeta = 0, to rounding
        flat = dataclasses.replace(ctx, zeta=0.0)
        assert conditional_payoff_constant_list(flat, 1.0) == pytest.approx(
            conditional_payoff_changing_list_exact(flat, 1.0), rel=1e-12, abs=0.0)


class TestPathEnd:
    def test_payoff_past_the_path_raises(self):
        # a 1-year path cannot price t = 5; clamping would freeze the
        # discount at t = 1 and return 83.87
        ctx = table2_context(sigma0_table2_path(1.0))
        flat = table2_context(sigma0_table2_path(1.0), constant_list=True)
        for conditional, c in ((conditional_payoff_no_list, ctx),
                               (conditional_payoff_changing_list, ctx),
                               (conditional_payoff_constant_list, flat)):
            with pytest.raises(ValueError, match="outside the rate path"):
                conditional(c, 5.0)
        assert conditional_payoff_no_list(ctx, 1.0) > 0.0
