import math

import numpy as np
import pytest

from conftest import three_sigma
from homesale.market_sim import (EvolutionConfig, compute_owt_frozen, draw_crisis,
                                 draw_occupation, expected_price_curve,
                                 list_schedule, resolve_attempt, run_evolution,
                                 run_sale_attempt, time_to_posting,
                                 update_prices, SaleAttempt, SaleOutcome)
from homesale.path_payoff import (ExponentialWithdrawals, PathContext,
                                  UniformOffers)
from homesale.stochastic import (CirParams, DemandParams, RatePath, simulate_cir,
                                 substream)

DEMAND = DemandParams(0.5, 1000.0)


def make_config(**kw):
    defaults = dict(cir=CirParams(0.25, 0.1, 0.08, 0.09), demand=DEMAND)
    defaults.update(kw)
    return EvolutionConfig(**defaults)


class TestDraws:
    def test_occupation_support(self):
        rng = substream(1, "occ")
        draws = [draw_occupation(rng) for _ in range(5000)]
        assert min(draws) >= 4.0 and max(draws) <= 6.0

    def test_crisis_mean(self):
        rng = substream(2, "crisis")
        draws = np.array([draw_crisis(rng) for _ in range(100_000)])
        three_sigma("crisis mean", 10.0, draws.mean(),
                    draws.std(ddof=1) / math.sqrt(draws.size))

    def test_distinct_streams_give_independent_draws(self):
        a = np.array([draw_crisis(substream(3, "s", i)) for i in range(0, 20000)])
        b = np.array([draw_crisis(substream(3, "t", i)) for i in range(0, 20000)])
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


class TestTimeToPosting:
    def test_crisis_before_occupation_end(self):
        path = RatePath(0.5, np.full(41, 0.2))
        time, cause = time_to_posting(5.0, 2.5, path, 0.06, search_end=path.horizon)
        assert cause == "crisis"
        assert time == 2.5

    def test_neither_trigger_fires(self):
        path = RatePath(0.5, np.full(41, 0.2))  # always above threshold
        time, cause = time_to_posting(5.0, 1e9, path, 0.06, search_end=path.horizon)
        assert cause is None
        assert time == path.horizon

    def test_deterministic_rate_crossing(self):
        # theta=0.05, r0=0.09, kappa=ln(4)/7: the mean-reversion curve
        # crosses 0.06 at exactly t=7
        kappa = math.log(4.0) / 7.0
        p = CirParams(kappa, 0.05, 0.0, 0.09)
        dt = 1.0 / 252.0
        path = simulate_cir(p, 12.0, dt, seed=0)
        time, cause = time_to_posting(5.0, 1e9, path, 0.06, search_end=path.horizon)
        assert cause == "profit"
        assert abs(time - 7.0) < 3.0 * dt

    def test_profit_waits_for_occupation_end(self):
        path = RatePath(0.5, np.full(41, 0.05))  # always below threshold
        time, cause = time_to_posting(5.25, 1e9, path, 0.06, search_end=path.horizon)
        assert cause == "profit"
        assert time == pytest.approx(5.5)  # first grid point past O


class TestListSchedule:
    def test_starts_at_initial_list(self):
        sched = list_schedule(140.0, 200.0, 1.0)
        assert float(sched(0.0)) == 200.0

    def test_decays_to_reservation(self):
        sched = list_schedule(140.0, 200.0, 1.0)
        assert float(sched(80.0)) == pytest.approx(140.0, abs=1e-12)

    def test_reference_point(self):
        sched = list_schedule(140.0, 200.0, 1.0)
        assert float(sched(1.0)) == pytest.approx(162.07276647028654, rel=1e-12)

    def test_zero_decay_is_constant(self):
        sched = list_schedule(140.0, 200.0, 0.0)
        assert float(sched(5.0)) == 200.0

    def test_rejects_inverted_prices(self):
        with pytest.raises(ValueError):
            list_schedule(200.0, 140.0, 1.0)


class TestFrozenOwt:
    # mu 10, gamma 0.8, prices (100, 200), t_max 20 and tol 1e-4 are the
    # EvolutionConfig defaults
    def test_lower_rate_means_shorter_wait(self):
        cfg = make_config()
        low = compute_owt_frozen(cfg, 0.06, 140.0, 200.0)
        high = compute_owt_frozen(cfg, 0.12, 140.0, 200.0)
        assert low.t_star <= high.t_star

    def test_extreme_impatience_drives_wait_to_zero(self):
        res = compute_owt_frozen(make_config(gamma=1e9, tol=1e-4), 0.09, 140.0, 200.0)
        assert res.t_star < 1e-4

    def test_matches_dense_grid(self):
        from homesale.closed_form import MarketParams, expected_utility
        from homesale.stochastic import demand_intensity

        res = compute_owt_frozen(make_config(tol=1e-4), 0.09, 140.0, 200.0)
        lam = demand_intensity(0.09, 200.0, DEMAND)
        m = MarketParams(lam, 10.0, 0.09, 100.0, 200.0)
        dense = np.linspace(20.0 / 200_000, 20.0, 200_000)
        vals = [expected_utility(t, m, 140.0, 200.0, 0.8) for t in dense]
        t_dense = dense[int(np.argmax(vals))]
        assert abs(res.t_star - t_dense) <= 1e-4 + 20.0 / 200_000


class TestResolveAttempt:
    SCHED = staticmethod(list_schedule(140.0, 200.0, 1.0))

    def test_no_offers_no_sale(self):
        out = resolve_attempt([], self.SCHED, 140.0, 1.0)
        assert not out.sold

    def test_first_list_crossing_wins(self):
        offers = [(0.2, 150.0, 9.9), (0.5, 199.0, 9.9), (0.7, 185.0, 9.9)]
        out = resolve_attempt(offers, self.SCHED, 140.0, 1.0)
        assert out.sold and out.time < 1.0  # a list crossing, before t_star
        assert out.price == 199.0 and out.time == 0.5

    def test_all_below_reservation_fails(self):
        offers = [(0.2, 120.0, 9.9), (0.6, 135.0, 9.9)]
        out = resolve_attempt(offers, self.SCHED, 140.0, 1.0)
        assert not out.sold

    def test_best_survivor_at_deadline(self):
        offers = [(0.2, 150.0, 9.9), (0.5, 160.0, 9.9)]
        out = resolve_attempt(offers, self.SCHED, 140.0, 1.0)
        assert out.sold and out.time == 1.0  # the end-of-window sale, at t_star
        assert out.price == 160.0 and out.time == 1.0

    def test_withdrawn_offers_do_not_count(self):
        offers = [(0.2, 150.0, 0.1), (0.5, 160.0, 0.1)]
        out = resolve_attempt(offers, self.SCHED, 140.0, 1.0)
        assert not out.sold

    def test_crossing_price_at_least_list_at_sale(self):
        rng = substream(5, "attempt")
        path = RatePath(1.0 / 252.0, np.full(600, 0.09))
        ctx = PathContext(path=path, list_schedule=self.SCHED,
                          offers=UniformOffers(100.0, 200.0),
                          withdrawals=ExponentialWithdrawals(10.0),
                          reservation=140.0, demand=DEMAND)
        for _ in range(200):
            att = run_sale_attempt(ctx, 2.0, rng)
            if not att.outcome.sold:
                continue
            if att.outcome.time < 2.0:  # a list crossing, before t_star
                assert att.outcome.price >= float(self.SCHED(att.outcome.time)) - 1e-12
            else:
                assert att.outcome.price >= 140.0


class TestUpdatePrices:
    def sale(self, price):
        return SaleAttempt([], SaleOutcome(True, price, 0.5))

    def no_sale(self):
        return SaleAttempt([], SaleOutcome(False))

    def test_sale_resets_to_agreed_price_and_top_list(self):
        assert update_prices(140.0, self.sale(173.0), 100.0, 200.0) == (173.0, 200.0)

    def test_failure_splits_toward_floor_and_relists_at_reservation(self):
        assert update_prices(140.0, self.no_sale(), 100.0, 200.0) == (120.0, 140.0)

    def test_two_failures(self):
        r1, _ = update_prices(140.0, self.no_sale(), 100.0, 200.0)
        r2, _ = update_prices(r1, self.no_sale(), 100.0, 200.0)
        assert r2 == 110.0


class TestEvolutionConfig:
    def test_equal_neighbours_accepted(self):
        cfg = make_config(p_min=100.0, initial_reservation=100.0, initial_list=200.0,
                          p_max=200.0)
        assert cfg.initial_list == cfg.p_max

    @pytest.mark.parametrize("prices", [
        dict(p_min=0.0, initial_reservation=140.0),          # p_min > 0
        dict(p_min=150.0),                                   # p_min <= R
        dict(initial_reservation=190.0, initial_list=180.0),  # R <= L
        dict(initial_list=250.0),                            # L <= p_max
        dict(initial_list=math.nan),
    ])
    def test_broken_price_ordering_raises(self, prices):
        with pytest.raises(ValueError):
            make_config(**prices)

    @pytest.mark.parametrize("field, value", [
        ("occupation_lo", 0.0), ("occupation_hi", 3.0), ("crisis_mean", 0.0),
        ("rate_threshold", 0.0), ("dt", 0.0), ("t_max", -1.0), ("tol", 0.0),
        ("mu", -1.0), ("gamma", -0.5), ("zeta", -1.0),
    ])
    def test_field_outside_its_domain_raises(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_config(**{field: value})


class TestRunEvolution:
    def test_horizon_shorter_than_first_occupation(self):
        cfg = make_config()
        log = run_evolution(cfg, 3.0, seed=9)
        assert [e.kind for e in log.events] == ["OccupationStart"]

    def test_zero_horizon_is_empty(self):
        cfg = make_config()
        log = run_evolution(cfg, 0.0, seed=9)
        assert log.events == []

    def test_fixed_seed_reproduces_event_stream(self):
        cfg = make_config()
        a = run_evolution(cfg, 50.0, seed=42)
        b = run_evolution(cfg, 50.0, seed=42)
        assert a.to_event_lines() == b.to_event_lines()

    def test_golden_event_stream_fixture(self):
        # frozen at first build; regenerate with
        # run_evolution(make_config(), 50.0, seed=42).to_event_lines()
        # if the generator stack legitimately changes
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "golden_events_seed42.txt"
        want = golden.read_text().splitlines()
        got = run_evolution(make_config(), 50.0, seed=42).to_event_lines()
        assert got == want

    def test_no_posting_without_triggers(self):
        # rates pinned above the threshold and crises pushed past the horizon
        cfg = make_config(cir=CirParams(0.25, 0.1, 0.0, 0.09), crisis_mean=1e7)
        log = run_evolution(cfg, 50.0, seed=11)
        kinds = {e.kind for e in log.events}
        assert "PostForSale" not in kinds
        assert kinds == {"OccupationStart"}

    def test_every_no_sale_repriced_and_reposted(self):
        cfg = make_config()
        log = run_evolution(cfg, 50.0, seed=42)
        events = log.events
        kinds = [e.kind for e in events]
        assert "NoSale" in kinds
        for i, e in enumerate(events):
            if e.kind != "NoSale":
                continue
            assert events[i + 1].kind == "Reprice"
            assert events[i + 1].time == e.time
            if e.time < 50.0:
                repost = events[i + 2]
                assert repost.kind == "PostForSale"
                assert repost.time == e.time

    def test_reprice_arithmetic_and_reservation_decline(self):
        cfg = make_config()
        log = run_evolution(cfg, 50.0, seed=42)
        reservation = cfg.initial_reservation
        for i, e in enumerate(log.events):
            if e.kind == "OccupationStart":
                reservation = e.price
            elif e.kind == "Reprice":
                expected = (reservation + cfg.p_min) / 2.0
                assert e.price == expected
                assert e.price < reservation
                assert e.price > cfg.p_min
                reservation = e.price
            elif e.kind == "Sale":
                assert e.price >= reservation or math.isclose(e.price, reservation)

    def test_event_times_non_decreasing(self):
        log = run_evolution(make_config(), 50.0, seed=42)
        times = [e.time for e in log.events]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_every_posting_resolves(self):
        log = run_evolution(make_config(), 50.0, seed=42)
        kinds = [e.kind for e in log.events]
        n_posts = kinds.count("PostForSale")
        assert n_posts > 0
        assert n_posts == kinds.count("Sale") + kinds.count("NoSale")


class TestExpectedPriceCurve:
    def test_single_replication_has_no_stderr(self):
        cfg = make_config(cir=CirParams(0.25, 0.1, 0.0, 0.09))
        pts = expected_price_curve(cfg, [1.0], 1, seed=3)
        assert len(pts) == 1
        assert math.isnan(pts[0].stderr)

    def test_mean_stable_under_doubling(self):
        cfg = make_config(cir=CirParams(0.25, 0.1, 0.0, 0.09))
        a = expected_price_curve(cfg, [1.0], 400, seed=5)[0]
        b = expected_price_curve(cfg, [1.0], 800, seed=6)[0]
        assert abs(a.mean_price - b.mean_price) <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_high_demand_regime_pays_more(self):
        # frozen flat paths: cheap money (r=0.05) vs dear money (r=0.14);
        # the mean-price contrast is ~1.5 so it needs a few thousand reps
        cfg = make_config()
        low = RatePath(cfg.dt, np.full(4000, 0.05))
        high = RatePath(cfg.dt, np.full(4000, 0.14))
        p_low = expected_price_curve(cfg, [1.0], 4000, seed=10, path=low)[0]
        p_high = expected_price_curve(cfg, [1.0], 4000, seed=10, path=high)[0]
        assert p_low.mean_price > p_high.mean_price
        assert p_low.no_sale_fraction < p_high.no_sale_fraction
