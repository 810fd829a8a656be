import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_sigma
from homesale import market_sim
from homesale.market_sim import (EvolutionConfig, compute_owt_frozen, draw_crisis,
                                 draw_occupation, expected_price_curve,
                                 run_evolution, run_sale_attempt, time_to_posting,
                                 update_prices, SaleAttempt, SaleOutcome)
from homesale.path_payoff import (ExponentialWithdrawals, PathContext,
                                  UniformOffers)
from homesale.stochastic import (RATE_FLOOR, CirParams, DemandParams, RatePath,
                                 _thinning_candidates, sample_nhpp, simulate_cir,
                                 substream)

DEMAND = DemandParams(0.5, 1000.0)


def make_config(**kw):
    defaults = dict(cir=CirParams(0.25, 0.1, 0.08, 0.09), demand=DEMAND)
    defaults.update(kw)
    return EvolutionConfig(**defaults)


def flat_context(rate=0.09, list_price=200.0, zeta=1.0, mu=10.0, reservation=140.0):
    path = RatePath(1.0 / 252.0, np.full(600, rate))
    return PathContext(path=path, list_price=list_price, zeta=zeta,
                       offers=UniformOffers(100.0, 200.0),
                       withdrawals=ExponentialWithdrawals(mu),
                       reservation=reservation, demand=DEMAND)


def cir_context():
    path = simulate_cir(CirParams(0.25, 0.1, 0.3, 0.09), 2.0, 1.0 / 252.0, seed=4)
    return PathContext(path=path, list_price=200.0, zeta=1.0,
                       offers=UniformOffers(100.0, 200.0),
                       withdrawals=ExponentialWithdrawals(10.0),
                       reservation=140.0, demand=DEMAND)


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


class TestListAt:
    def test_starts_at_initial_list(self):
        assert float(flat_context().list_at(0.0)) == 200.0

    def test_decays_to_reservation(self):
        assert float(flat_context().list_at(80.0)) == pytest.approx(140.0, abs=1e-12)

    def test_reference_point(self):
        assert float(flat_context().list_at(1.0)) == pytest.approx(162.07276647028654,
                                                                   rel=1e-12)

    def test_zero_decay_is_constant(self):
        assert float(flat_context(zeta=0.0).list_at(5.0)) == 200.0

    def test_rejects_inverted_prices(self):
        with pytest.raises(ValueError):
            flat_context(list_price=140.0, reservation=200.0)


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


def reference_rule(offers, list_at, R, t_star) -> SaleOutcome:
    """The sale rule as a loop over one attempt's (arrival, value,
    withdrawal delay) offers in arrival order.

    Immediate sale at the first offer whose value meets the list price
    at its arrival; otherwise, at t_star, the best offer above R that
    has not been withdrawn; otherwise no sale.
    """
    for arrival, value, _ in offers:
        if value >= float(list_at(arrival)):
            return SaleOutcome(True, value, arrival)
    best = None
    for arrival, value, delay in offers:
        if value >= R and delay >= t_star - arrival:
            if best is None or value > best:
                best = value
    if best is not None:
        return SaleOutcome(True, best, t_star)
    return SaleOutcome(False)


def engine_rules(attempts, list_at, R, t_star) -> list[SaleOutcome]:
    """The engine's array rule on several attempts at once, one outcome
    per attempt."""
    rows = [(i, *o) for i, offers in enumerate(attempts) for o in offers]
    rep, a, v, d = (np.array(c, dtype=float) for c in zip(*rows)) if rows \
        else (np.empty(0),) * 4
    sold, price, time = market_sim._sale_rule(rep.astype(np.int64), a, v, d, len(attempts),
                                              list_at(a), R, t_star)
    return [SaleOutcome(True, float(p), float(t)) if s else SaleOutcome(False)
            for s, p, t in zip(sold, price, time)]


def engine_rule(offers, list_at, R, t_star) -> SaleOutcome:
    return engine_rules([offers], list_at, R, t_star)[0]


def same_outcome(a: SaleOutcome, b: SaleOutcome) -> bool:
    # bitwise: NaN price and time of a no-sale compare equal
    return (a.sold, np.float64(a.price).tobytes(), np.float64(a.time).tobytes()) == \
        (b.sold, np.float64(b.price).tobytes(), np.float64(b.time).tobytes())


@pytest.mark.parametrize("rule", [reference_rule, engine_rule], ids=["reference", "engine"])
class TestSaleRule:
    LIST_AT = staticmethod(flat_context().list_at)

    def test_no_offers_no_sale(self, rule):
        out = rule([], self.LIST_AT, 140.0, 1.0)
        assert not out.sold

    def test_first_list_crossing_wins(self, rule):
        offers = [(0.2, 150.0, 9.9), (0.5, 199.0, 9.9), (0.7, 185.0, 9.9)]
        out = rule(offers, self.LIST_AT, 140.0, 1.0)
        assert out.sold and out.time < 1.0  # a list crossing, before t_star
        assert out.price == 199.0 and out.time == 0.5

    def test_all_below_reservation_fails(self, rule):
        offers = [(0.2, 120.0, 9.9), (0.6, 135.0, 9.9)]
        out = rule(offers, self.LIST_AT, 140.0, 1.0)
        assert not out.sold

    def test_best_survivor_at_deadline(self, rule):
        offers = [(0.2, 150.0, 9.9), (0.5, 160.0, 9.9)]
        out = rule(offers, self.LIST_AT, 140.0, 1.0)
        assert out.sold and out.time == 1.0  # the end-of-window sale, at t_star
        assert out.price == 160.0 and out.time == 1.0

    def test_withdrawn_offers_do_not_count(self, rule):
        offers = [(0.2, 150.0, 0.1), (0.5, 160.0, 0.1)]
        out = rule(offers, self.LIST_AT, 140.0, 1.0)
        assert not out.sold


@st.composite
def attempt_sets(draw):
    """A list, R, t_star and a few attempts' offers in arrival order,
    with values that tie the list or R, and withdrawal delays that are
    infinite (mu = 0), zero or random."""
    R = draw(st.floats(100.0, 190.0))
    L0 = draw(st.floats(R, 200.0))
    list_at = flat_context(list_price=L0, zeta=draw(st.sampled_from([0.0, 0.5, 3.0])),
                           reservation=R).list_at
    t_star = draw(st.floats(0.01, 3.0))
    attempts = []
    for _ in range(draw(st.integers(1, 6))):
        never_withdrawn = draw(st.booleans())
        offers = []
        for a in sorted(draw(st.lists(st.floats(0.0, t_star), max_size=6))):
            kind = draw(st.sampled_from(["free", "list", "reservation"]))
            if kind == "list":
                v = float(list_at(a))
            elif kind == "reservation":
                v = R
            else:
                v = draw(st.floats(100.0, 200.0))
            d = math.inf if never_withdrawn else draw(
                st.sampled_from([0.0, draw(st.floats(0.0, 2.0 * t_star))]))
            offers.append((a, v, d))
        attempts.append(offers)
    return list_at, R, t_star, attempts


class TestEngineRule:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(attempt_sets())
    def test_agrees_with_reference_per_attempt(self, case):
        list_at, R, t_star, attempts = case
        got = engine_rules(attempts, list_at, R, t_star)
        want = [reference_rule(o, list_at, R, t_star) for o in attempts]
        assert all(same_outcome(g, w) for g, w in zip(got, want)), (got, want)


def batch_fields(batches, n_reps):
    """Per attempt: its accepted offers' bytes and its outcome's bytes."""
    out = []
    for b in batches:
        for j in range(b.sold.size):
            sel = b.rep == j
            out.append(tuple(x.tobytes() for x in (b.arrival[sel], b.value[sel],
                                                   b.delay[sel], b.sold[j], b.price[j],
                                                   b.time[j])))
    assert len(out) == n_reps
    return out


def run_engine(ctx, t_star, n_reps, seed=7):
    gens = (substream(seed, "engine", j) for j in range(n_reps))
    return batch_fields(list(market_sim._sale_attempts(ctx, t_star, gens)), n_reps)


class TestSaleAttempts:
    def test_crossing_price_at_least_list_at_sale(self):
        rng = substream(5, "attempt")
        ctx = flat_context()
        for _ in range(200):
            att = run_sale_attempt(ctx, 2.0, rng)
            if not att.outcome.sold:
                continue
            if att.outcome.time < 2.0:  # a list crossing, before t_star
                assert att.outcome.price >= float(ctx.list_at(att.outcome.time)) - 1e-12
            else:
                assert att.outcome.price >= 140.0

    def test_growing_a_run_past_the_budget_keeps_earlier_attempts(self):
        # a zero rate thins at the RATE_FLOOR bound, so the short run fits
        # in one batch and the long one needs several
        ctx, t_star = flat_context(rate=0.0), 0.2
        per_rep = t_star * float(DEMAND.intensity(RATE_FLOOR, 140.0))
        n_short = int(0.5 * market_sim._CHUNK_CANDIDATES / per_rep)
        n_long = int(3.0 * market_sim._CHUNK_CANDIDATES / per_rep)
        assert n_short >= 2
        short, long_ = run_engine(ctx, t_star, n_short), run_engine(ctx, t_star, n_long)
        assert long_[:n_short] == short

    @pytest.mark.parametrize("budget", [1, 300])
    def test_batching_never_changes_an_attempt(self, monkeypatch, budget):
        ctx = cir_context()
        whole = run_engine(ctx, 1.5, 40)
        monkeypatch.setattr(market_sim, "_CHUNK_CANDIDATES", budget)
        assert run_engine(ctx, 1.5, 40) == whole

    def test_run_sale_attempt_is_the_one_generator_batch(self):
        # attempt j alone, inside a 30-attempt batch, and through
        # run_sale_attempt: the same offers and outcome, bit for bit
        ctx, t_star = cir_context(), 1.5
        many = run_engine(ctx, t_star, 30, seed=8)
        for j in range(30):
            one, = market_sim._sale_attempts(ctx, t_star, [substream(8, "engine", j)])
            assert batch_fields([one], 1) == [many[j]]
            att = run_sale_attempt(ctx, t_star, substream(8, "engine", j))
            assert same_outcome(att.outcome, SaleOutcome(bool(one.sold[0]), float(one.price[0]),
                                                         float(one.time[0])))
            kept = one.arrival <= (att.outcome.time if att.outcome.sold else t_star)
            assert att.offers == list(zip(one.arrival[kept].tolist(), one.value[kept].tolist(),
                                          one.delay[kept].tolist()))

    def test_increasing_list_raises(self, monkeypatch):
        # PathContext cannot hold a rising list, so one is patched in
        monkeypatch.setattr(PathContext, "list_at",
                            lambda self, T: 200.0 - 60.0 * np.exp(-np.asarray(T, dtype=float)))
        ctx = flat_context()
        with pytest.raises(ValueError, match="exceeds bound"):
            list(market_sim._sale_attempts(ctx, 1.0, (substream(9, "up", j)
                                                       for j in range(50))))

    def test_guard_sees_every_candidate(self, monkeypatch):
        # the list dips below L(t_star) only on [0.5, 0.51): an attempt
        # must fail exactly when one of its candidates lands there
        def dip(self, T):
            T = np.asarray(T, dtype=float)
            return np.where((T >= 0.5) & (T < 0.51), 140.0, 200.0)

        monkeypatch.setattr(PathContext, "list_at", dip)
        ctx = flat_context()
        bound = float(DEMAND.intensity(0.09, 200.0))
        outcomes = []
        for j in range(300):
            cands, _ = _thinning_candidates(substream(10, "dip", j), 1.0, bound)
            in_dip = bool(np.any((cands >= 0.5) & (cands < 0.51)))
            try:
                run_sale_attempt(ctx, 1.0, substream(10, "dip", j))
                raised = False
            except ValueError:
                raised = True
            assert raised == in_dip
            outcomes.append(raised)
        assert 0 < sum(outcomes) < len(outcomes)
        with pytest.raises(ValueError, match="exceeds bound"):
            list(market_sim._sale_attempts(ctx, 1.0, (substream(10, "dip", j)
                                                       for j in range(300))))

    def test_rejects_non_positive_t_star(self):
        with pytest.raises(ValueError, match="t_star"):
            run_sale_attempt(flat_context(), 0.0, substream(1, "x"))


def test_tight_bound_matches_rate_floor_bound_in_distribution():
    # the old sampler, rebuilt: thinning at k1/RATE_FLOOR + k2/R with one
    # value and one delay per kept offer, resolved by the reference rule
    ctx, t_star, n = cir_context(), 1.0, 2000
    floor_bound = float(DEMAND.intensity(RATE_FLOOR, ctx.reservation))
    old_counts, old_outcomes = [], []
    for j in range(n):
        rng = substream(12, "floor-bound", j)
        arrivals = sample_nhpp(ctx.intensity, t_star, floor_bound, rng)
        values = ctx.offers.sample(rng, arrivals.size)
        delays = ctx.withdrawals.sample(rng, arrivals.size)
        old_counts.append(arrivals.size)
        old_outcomes.append(reference_rule(list(zip(arrivals, values, delays)),
                                           ctx.list_at, ctx.reservation, t_star))
    gens = (substream(12, "tight-bound", j) for j in range(n))
    batches = list(market_sim._sale_attempts(ctx, t_star, gens))
    new_counts = np.concatenate([np.bincount(b.rep, minlength=b.sold.size) for b in batches])
    new_sold = np.concatenate([b.sold for b in batches])
    new_prices = np.concatenate([b.price[b.sold] for b in batches])
    old_prices = np.array([o.price for o in old_outcomes if o.sold])

    def close(label, x, y):
        se = math.hypot(np.std(x, ddof=1) / math.sqrt(len(x)),
                        np.std(y, ddof=1) / math.sqrt(len(y)))
        three_sigma(label, np.mean(x), np.mean(y), se, sigmas=4.0)

    close("offer count", np.array(old_counts, dtype=float), new_counts.astype(float))
    close("sale price", old_prices, new_prices)
    close("no-sale share", np.array([not o.sold for o in old_outcomes], dtype=float),
          (~new_sold).astype(float))


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
