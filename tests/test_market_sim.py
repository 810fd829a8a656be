import copy
import dataclasses
import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_sigma
from homesale import market_sim, oracle, owt, stochastic
from homesale.closed_form import _listed_args
from homesale.market_sim import (EvolutionConfig, compute_owt_frozen,
                                 expected_price_curve, run_evolution, run_sale_attempt,
                                 time_to_posting, SaleOutcome)
from homesale.owt import _solve_listed
from homesale.path_payoff import (ExponentialWithdrawals, PathContext, UniformOffers,
                                  conditional_payoff_changing_list_exact)
from homesale.stochastic import (RATE_FLOOR, CirParams, DemandParams, RatePath, _thin,
                                 sample_nhpp, simulate_cir, substream)

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


def engine_lanes(seed, *key):
    """The five lanes of a sale-engine draw: counts, times, acceptance
    uniforms, values and delays."""
    return substream(seed, *key).spawn(5)


def handing(lanes):
    """A spawn function for _sale_attempts that hands out `lanes`."""
    def spawn(m):
        assert m == len(lanes)
        return lanes
    return spawn


def states(lanes):
    return [copy.deepcopy(lane.bit_generator.state) for lane in lanes]


def owner_draws(cfg, seed, count):
    """Each owner's (occupation, crisis) years, drawn as run_evolution
    draws them from substream(seed, "owner", i), for i < count."""
    gens = (substream(seed, "owner", i) for i in range(count))
    return np.array([(g.uniform(cfg.occupation_lo, cfg.occupation_hi),
                      g.exponential(cfg.crisis_mean)) for g in gens])


class TestDraws:
    def test_occupation_support(self):
        cfg = make_config()
        draws = owner_draws(cfg, 1, 5000)[:, 0]
        assert draws.min() >= cfg.occupation_lo and draws.max() <= cfg.occupation_hi

    def test_crisis_mean(self):
        cfg = make_config()
        draws = owner_draws(cfg, 2, 100_000)[:, 1]
        three_sigma("crisis mean", cfg.crisis_mean, draws.mean(),
                    draws.std(ddof=1) / math.sqrt(draws.size))

    def test_distinct_streams_give_independent_draws(self):
        # owner i's crisis against owner i + 1's
        crisis = owner_draws(make_config(), 3, 20001)[:, 1]
        assert abs(np.corrcoef(crisis[:-1], crisis[1:])[0, 1]) < 0.02

    def test_every_posting_replays_from_its_owner_draws(self):
        cfg, seed, horizon = make_config(), 42, 200.0
        log = run_evolution(cfg, horizon, seed)
        starts = [e for e in log.events if e.kind == "OccupationStart"]
        posts = {e.owner: e for e in log.events
                 if e.kind in ("CrisisShock", "ProfitOpportunity")}
        assert len(starts) > 20
        kinds = {"crisis": "CrisisShock", "profit": "ProfitOpportunity"}
        for start, (occupation, crisis) in zip(starts, owner_draws(cfg, seed, len(starts))):
            t, cause = time_to_posting(start.time + occupation, start.time + crisis,
                                       log.path, cfg.rate_threshold, horizon)
            if cause is None:
                assert start.owner not in posts
            else:
                post = posts.pop(start.owner)
                assert (post.time, post.kind) == (t, kinds[cause])
        assert posts == {}


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

    @pytest.mark.parametrize("occupation_end, crisis_time, name", [
        (-3.0, 1e9, "occupation_end"),  # used to post at -3.0, before the path
        (math.nan, 1e9, "occupation_end"),
        (math.inf, 1e9, "occupation_end"),
        (5.0, math.nan, "crisis_time"),  # used to read as no crisis
        (5.0, -1.0, "crisis_time")])
    def test_rejects_bad_times(self, occupation_end, crisis_time, name):
        path = RatePath(0.5, np.full(41, 0.05))
        with pytest.raises(ValueError, match=name):
            time_to_posting(occupation_end, crisis_time, path, 0.06, 20.0)

    def test_rejects_nan_threshold(self):
        # used to never post for profit: (8.0, None) where 0.06 gives (4.0, "profit")
        path = RatePath(0.5, np.full(41, 0.05))
        assert time_to_posting(4.0, math.inf, path, 0.06, 8.0) == (4.0, "profit")
        with pytest.raises(ValueError, match="threshold"):
            time_to_posting(4.0, math.inf, path, math.nan, 8.0)

    def test_rejects_nan_search_end(self):
        # used to return (nan, None)
        path = RatePath(0.5, np.full(41, 0.2))
        with pytest.raises(ValueError, match="search_end"):
            time_to_posting(1.0, 5.0, path, 0.06, math.nan)

    def test_infinite_crisis_time_is_no_crisis(self):
        path = RatePath(0.5, np.full(41, 0.2))
        assert time_to_posting(5.0, math.inf, path, 0.06, 20.0) == (20.0, None)


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

        res = compute_owt_frozen(make_config(tol=1e-4), 0.09, 140.0, 200.0)
        lam = DEMAND.intensity(0.09, 200.0)
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


def offer_arrays(attempts):
    """(rep, arrival, value, delay) arrays of several attempts' offers,
    rep the attempt's index."""
    rows = [(i, *o) for i, offers in enumerate(attempts) for o in offers]
    rep, a, v, d = (np.array(c, dtype=float) for c in zip(*rows)) if rows \
        else (np.empty(0),) * 4
    return rep.astype(np.int64), a, v, d


def engine_rules(attempts, list_at, R, t_star) -> list[SaleOutcome]:
    """The engine's array rule on several attempts at once, one outcome
    per attempt."""
    rep, a, v, d = offer_arrays(attempts)
    sold, price, time = market_sim._sale_rule(rep, a, v, d, len(attempts),
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


def no_list(a):
    """The list price of a sale without a public list: np.inf, which no
    offer meets."""
    return np.full(np.shape(a), np.inf)


@st.composite
def attempt_sets(draw):
    """A list (or none), R, t_star and a few attempts' offers in arrival
    order, with values that tie the schedule or R, pairs of offers that
    tie at one arrival at or above the schedule with different values,
    and withdrawal delays that are infinite (mu = 0), zero or random."""
    R = draw(st.floats(100.0, 190.0))
    L0 = draw(st.floats(R, 200.0))
    schedule = flat_context(list_price=L0, zeta=draw(st.sampled_from([0.0, 0.5, 3.0])),
                            reservation=R).list_at
    list_at = schedule if draw(st.booleans()) else no_list
    t_star = draw(st.floats(0.01, 3.0))
    attempts = []
    for _ in range(draw(st.integers(1, 6))):
        never_withdrawn = draw(st.booleans())
        offers = []
        for a in sorted(draw(st.lists(st.floats(0.0, t_star), max_size=6))):
            kind = draw(st.sampled_from(["free", "list", "reservation", "tie"]))
            if kind in ("list", "tie"):
                vs = [float(schedule(a))]
            elif kind == "reservation":
                vs = [R]
            else:
                vs = [draw(st.floats(100.0, 200.0))]
            if kind == "tie":
                vs.insert(draw(st.integers(0, 1)), vs[0] + draw(st.floats(0.5, 50.0)))
            for v in vs:
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(attempt_sets(), st.sampled_from([0.0, 0.09, 2.0]))
    def test_oracle_payoff_is_the_discounted_reference_price(self, case, r):
        # the oracles' payoff: _settle's price discounted to the sale time
        list_at, R, t_star, attempts = case
        rep, a, v, d = offer_arrays(attempts)
        listed = np.inf if list_at is no_list else list_at(a)
        got = oracle._discounted(stochastic._settle(rep, len(attempts), a, v, d, listed, R, t_star),
                                 lambda s: np.exp(-r * s), math.exp(-r * t_star))
        for g, offers in zip(got.tolist(), attempts):
            want = reference_rule(offers, list_at, R, t_star)
            if want.sold:
                assert g == pytest.approx(want.price * math.exp(-r * want.time), rel=1e-15)
            else:
                assert g == 0.0


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


class EngineRecord:
    """What the wrapped engine drew: per call (context, t_star, lane
    states at its start, attempts), per attempt its offers' and outcome's
    bytes, and the count of batches."""

    def __init__(self):
        self.calls, self.attempts, self.blocks = [], [], 0


_ENGINE = market_sim._sale_attempts


def record_engine(monkeypatch) -> EngineRecord:
    """Wrap market_sim._sale_attempts, replacing any earlier wrapper, so
    that it records its draws in the EngineRecord this returns."""
    record = EngineRecord()

    def recorded(ctx, t_star, spawn, n):
        def spawning(m):
            lanes = spawn(m)
            record.calls.append((ctx, t_star, states(lanes), n))
            return lanes

        for b in _ENGINE(ctx, t_star, spawning, n):
            record.blocks += 1
            record.attempts += batch_fields([b], b.sold.size)
            yield b

    monkeypatch.setattr(market_sim, "_sale_attempts", recorded)
    return record


def run_engine(ctx, t_star, n_reps, seed=7):
    spawn = substream(seed, "engine").spawn
    return batch_fields(list(market_sim._sale_attempts(ctx, t_star, spawn, n_reps)), n_reps)


@st.composite
def rep_times(draw):
    """A block's candidates as _blocks yields them: each attempt's index,
    nondecreasing, with 0 to 6 entries an attempt (blocks of no entry and
    of one attempt included), and times drawn from zero, a few shared
    values that repeat and any finite non-negative double."""
    counts = draw(st.lists(st.integers(0, 6), max_size=10))
    rep = np.repeat(np.arange(len(counts)), counts)
    pool = st.one_of(st.sampled_from([0.0, 5e-324, 0.25, 1.0]),
                     st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False))
    # abs: the engine's times are random() * t_star, never -0.0
    times = np.abs(np.array(draw(st.lists(pool, min_size=rep.size, max_size=rep.size)),
                            dtype=float))
    return rep, times


@pytest.mark.parametrize("rep, times", [
    (np.zeros(0, dtype=np.int64), np.zeros(0)),  # an empty block
    (np.zeros(1, dtype=np.int64), np.array([0.5])),  # one attempt, one offer
    (np.zeros(4, dtype=np.int64), np.array([0.0, 0.75, 0.0, 0.75])),  # one attempt, ties
    (np.array([0, 0, 2, 2, 2]), np.array([1.0, 0.0, 0.0, 1.0, 0.0])),  # zeros, a gap
])
def test_complex_key_sort_is_the_lexsort_at_the_edges(rep, times):
    got = market_sim._sorted_by_rep(rep, times)
    assert got.tobytes() == times[np.lexsort((times, rep))].tobytes()
    assert got.flags.c_contiguous


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rep_times())
def test_complex_key_sort_is_the_lexsort(case):
    rep, times = case
    got = market_sim._sorted_by_rep(rep, times)
    assert got.tobytes() == times[np.lexsort((times, rep))].tobytes()
    assert got.flags.c_contiguous


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

    def test_growing_a_run_past_the_budget_keeps_earlier_attempts(self, monkeypatch):
        # a zero rate thins at the RATE_FLOOR bound; with blocks of 64
        # candidates each attempt is a block of its own, the counts come
        # in pieces of 64 attempts, and growing the run keeps the short
        # run's attempts
        monkeypatch.setattr(stochastic, "_BLOCK", 64)
        cfg, path = make_config(), RatePath(1.0 / 252.0, np.zeros(6000))
        n_short, n_long = 100, 3 * 256 + 50
        short = record_engine(monkeypatch)
        expected_price_curve(cfg, [1.0], n_short, 7, path=path)
        long_ = record_engine(monkeypatch)
        expected_price_curve(cfg, [1.0], n_long, 7, path=path)
        assert len(short.calls) == len(long_.calls) == 1
        assert 1 < short.blocks < long_.blocks
        assert long_.attempts[:n_short] == short.attempts

    @pytest.mark.parametrize("budget", [1, 300])
    def test_batching_never_changes_an_attempt(self, monkeypatch, budget):
        ctx = cir_context()
        whole, ended = run_engine(ctx, 1.5, 40), engine_lanes(7, "engine")
        list(market_sim._sale_attempts(ctx, 1.5, handing(ended), 40))
        monkeypatch.setattr(stochastic, "_BLOCK", budget)
        lanes = engine_lanes(7, "engine")
        batches = list(market_sim._sale_attempts(ctx, 1.5, handing(lanes), 40))
        assert len(batches) > 1
        assert batch_fields(batches, 40) == whole
        assert states(lanes) == states(ended)

    def test_run_sale_attempt_is_the_one_generator_batch(self):
        # 30 one-attempt batches from one generator, each through
        # _sale_attempts with the generator as every lane, through
        # run_sale_attempt and as the reference draws it: the same offers
        # and outcome, bit for bit, and each generator left where the
        # reference leaves it
        ctx, t_star = cir_context(), 1.5
        alone, through, ref = (substream(8, "engine") for _ in range(3))
        for _ in range(30):
            one, = market_sim._sale_attempts(ctx, t_star, lambda m: [alone] * m, 1)
            assert batch_fields([one], 1)[0][:3] == tuple(
                x.tobytes() for x in reference_attempt(ctx, t_star, ref))
            att = run_sale_attempt(ctx, t_star, through)
            assert same_outcome(att.outcome, SaleOutcome(bool(one.sold[0]), float(one.price[0]),
                                                         float(one.time[0])))
            kept = one.arrival <= (att.outcome.time if att.outcome.sold else t_star)
            assert att.offers == list(zip(one.arrival[kept].tolist(), one.value[kept].tolist(),
                                          one.delay[kept].tolist()))
            assert (alone.bit_generator.state == through.bit_generator.state
                    == ref.bit_generator.state)

    @pytest.mark.parametrize("k1", [200.0, 1e3])
    def test_a_poisson_mean_above_the_cap_raises_before_drawing(self, k1):
        # at RATE_FLOOR, k1 / 1e-4 offers a year: a mean of 2e6 or 1e7
        # an attempt over one year, against the cap of 1e6
        ctx = dataclasses.replace(flat_context(rate=0.0), demand=DemandParams(k1, 1000.0))
        lanes = engine_lanes(3, "cap")
        before = states(lanes)
        mean = float(ctx.demand.intensity(0.0, float(ctx.list_at(1.0))))
        with pytest.raises(ValueError, match=re.escape(f"Poisson mean {mean:g} per "
                                                       "replication exceeds the cap")):
            list(market_sim._sale_attempts(ctx, 1.0, handing(lanes), 5))
        assert states(lanes) == before
        # a mean under the cap draws
        assert len(list(market_sim._sale_attempts(ctx, 0.01, handing(lanes), 1))) == 1

    def test_increasing_list_raises(self, monkeypatch):
        # PathContext cannot hold a rising list, so one is patched in
        monkeypatch.setattr(PathContext, "list_at",
                            lambda self, T: 200.0 - 60.0 * np.exp(-np.asarray(T, dtype=float)))
        ctx = flat_context()
        with pytest.raises(ValueError, match="exceeds bound"):
            list(market_sim._sale_attempts(ctx, 1.0, substream(9, "up").spawn, 50))

    def test_guard_sees_every_candidate(self, monkeypatch):
        # the list dips below L(t_star) only on [0.5, 0.51): an attempt
        # must fail exactly when one of its candidates lands there
        def dip(self, T):
            T = np.asarray(T, dtype=float)
            return np.where((T >= 0.5) & (T < 0.51), 140.0, 200.0)

        monkeypatch.setattr(PathContext, "list_at", dip)
        ctx = flat_context()
        bound = float(DEMAND.intensity(0.09, 200.0))
        outcomes, rng = [], substream(10, "dip")
        for _ in range(300):
            ref = copy.deepcopy(rng)  # where this attempt's draws start
            cands = np.sort(ref.uniform(0.0, 1.0, ref.poisson(bound)))
            in_dip = bool(np.any((cands >= 0.5) & (cands < 0.51)))
            try:
                run_sale_attempt(ctx, 1.0, rng)
                raised = False
            except ValueError:
                raised = True
            assert raised == in_dip
            outcomes.append(raised)
        assert 0 < sum(outcomes) < len(outcomes)
        with pytest.raises(ValueError, match="exceeds bound"):
            list(market_sim._sale_attempts(ctx, 1.0, substream(10, "dip").spawn, 300))

    def test_rejects_non_positive_t_star(self):
        with pytest.raises(ValueError, match="t_star"):
            run_sale_attempt(flat_context(), 0.0, substream(1, "x"))


def reference_attempt(ctx, t_star, rng):
    """One attempt's kept (arrival, value, delay) drawn the unmerged way:
    the thinning candidates and their uniforms, then the values, then
    the delays, each from its own call on rng."""
    r_min = max(float(ctx.path.values.min()), RATE_FLOOR)
    bound = float(ctx.demand.intensity(r_min, float(ctx.list_at(t_star))))
    n = rng.poisson(bound * t_star)
    cands = np.sort(rng.uniform(0.0, t_star, n))
    u = rng.uniform(0.0, 1.0, n)
    value = ctx.offers.sample(rng, cands.size)
    delay = ctx.withdrawals.sample(rng, cands.size)
    keep = _thin(np.asarray(ctx.intensity(cands), dtype=float), cands, u, bound)
    return cands[keep], value[keep], delay[keep]


def reference_lanes(ctx, t_star, lanes, n):
    """n attempts' kept (arrival, value, delay) drawn the one-shot lane
    way: n candidate counts from lanes[0], then every candidate's time,
    acceptance uniform, value and delay, each field in one call on its
    own lane; attempt j takes its slice of each field and sorts its
    times."""
    r_min = max(float(ctx.path.values.min()), RATE_FLOOR)
    bound = float(ctx.demand.intensity(r_min, float(ctx.list_at(t_star))))
    counts = lanes[0].poisson(bound * t_star, n)
    total = int(counts.sum())
    times, u = lanes[1].uniform(0.0, t_star, total), lanes[2].uniform(0.0, 1.0, total)
    value, delay = ctx.offers.sample(lanes[3], total), ctx.withdrawals.sample(lanes[4], total)
    out, edges = [], np.concatenate(([0], np.cumsum(counts)))
    for lo, hi in zip(edges[:-1], edges[1:]):
        cands = np.sort(times[lo:hi])
        keep = _thin(np.asarray(ctx.intensity(cands), dtype=float), cands, u[lo:hi], bound)
        out.append((cands[keep], value[lo:hi][keep], delay[lo:hi][keep]))
    return out


class TestStreamIdentity:
    """The engine's block draw over distinct lanes against the one-shot
    lane draw, and its one-attempt calls on one generator as every lane
    against the per-attempt reference, compared by bytes."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), n_reps=st.integers(1, 6),
           rate=st.sampled_from([0.0, 0.03, 0.09]),
           scale=st.sampled_from([1e-9, 1.0]),  # 1e-9: almost every count is 0
           t_star=st.floats(1e-3, 2.0), mu=st.sampled_from([0.0, 10.0]),
           zeta=st.sampled_from([0.0, 1.0, 4.0]), block=st.sampled_from([1, 1 << 15]))
    def test_engine_draws_the_reference_stream(self, seed, n_reps, rate, scale, t_star,
                                               mu, zeta, block):
        ctx = dataclasses.replace(
            flat_context(rate=rate, mu=mu, zeta=zeta),
            demand=DemandParams(DEMAND.k1 * scale, DEMAND.k2 * scale))

        def drawn(batches):
            return [tuple(x[b.rep == j].tobytes() for x in (b.arrival, b.value, b.delay))
                    for b in batches for j in range(b.sold.size)]

        def as_bytes(attempts):
            return [tuple(x.tobytes() for x in att) for att in attempts]

        with mock.patch.object(stochastic, "_BLOCK", block):
            # n_reps attempts as one block draw over distinct lanes,
            # against each field drawn in one piece from its lane
            lanes = engine_lanes(seed, "identity")
            ref = copy.deepcopy(lanes)
            got = drawn(market_sim._sale_attempts(ctx, t_star, handing(lanes), n_reps))
            assert got == as_bytes(reference_lanes(ctx, t_star, ref, n_reps))
            assert states(lanes) == states(ref)
            # n_reps one-attempt calls on one generator as every lane,
            # against the per-attempt reference drawn in order from one copy
            rng = substream(seed, "identity")
            ref = copy.deepcopy(rng)
            got = [att for _ in range(n_reps)
                   for att in drawn(market_sim._sale_attempts(ctx, t_star, lambda m: [rng] * m, 1))]
            assert got == as_bytes(reference_attempt(ctx, t_star, ref) for _ in range(n_reps))
            # and the generator is left where the reference leaves it
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), k=st.integers(0, 300),
           p_min=st.floats(1e-3, 1e6), width=st.floats(1e-3, 1e6))
    def test_sample_is_numpy_uniform(self, seed, k, p_min, width):
        offers = UniformOffers(p_min, p_min + width)
        a, b = substream(seed, "unit"), substream(seed, "unit")
        # k draws, one, then k more, each where the last left the generator
        assert offers.sample(a, k).tobytes() == b.uniform(offers.p_min, offers.p_max, k).tobytes()
        assert offers.sample(a) == b.uniform(offers.p_min, offers.p_max)
        assert offers.sample(a, k).tobytes() == b.uniform(offers.p_min, offers.p_max, k).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), k=st.integers(0, 300),
           scale=st.floats(1e-6, 1e6))
    def test_scaled_fills_are_numpy_uniform_and_exponential(self, seed, k, scale):
        # the offer oracles draw through the fill kernels and scale after:
        # uniform(0, T) is T * random() and exponential(s) is
        # s * standard_exponential(), bit for bit
        a, b = substream(seed, "fill"), substream(seed, "fill")
        assert (a.random(k) * scale).tobytes() == b.uniform(0.0, scale, k).tobytes()
        assert ((a.standard_exponential(k) * scale).tobytes()
                == b.exponential(scale, k).tobytes())


@pytest.mark.parametrize("size", [None, 0, 1, 2, 7, 1000, 32_768])
@pytest.mark.parametrize("mu", [0.0, 0.3, 10.0])
def test_withdrawal_draws_are_numpy_exponential(size, mu):
    # the fill kernel times 1/mu: numpy's exponential(1/mu, size) bit for
    # bit, one draw per delay; mu = 0 draws nothing and never withdraws
    a, b = substream(5, "withdrawals"), substream(5, "withdrawals")
    got = ExponentialWithdrawals(mu).sample(a, size)
    if mu == 0.0:
        want = np.full(() if size is None else size, np.inf)
    else:
        want = b.exponential(1.0 / mu, size)
    assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


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
    batches = list(market_sim._sale_attempts(ctx, t_star, substream(12, "tight-bound").spawn, n))
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


@pytest.mark.parametrize("i, t_post, window", [(0, 2.0, None), (1, 10.0, 1.0),
                                                (2, 18.0, 2.0)])
def test_engine_mean_payoff_is_the_exact_conditional_payoff(i, t_post, window):
    # posting on the seed-1 path at the frozen t_star, and with windows of
    # one and two years, in which an attempt crosses the decaying list
    # more than once often enough to tell the first crossing from another
    cfg, n = make_config(), 100_000
    path = market_sim._rate_path(cfg, 20.0, 1)
    R, L0 = cfg.initial_reservation, cfg.initial_list
    if window is None:
        owt_t = compute_owt_frozen(cfg, float(path.rate_at(t_post)), R, L0).t_star
        window, _ = market_sim._posting_step(cfg, path, t_post, owt_t, R, L0)
    ctx = cfg.context(path.shifted(t_post, window), R, L0, cfg.zeta)
    payoff = []
    for b in market_sim._sale_attempts(ctx, window, substream(99, "engine-exact", i).spawn, n):
        discount = np.exp(-ctx.path._cumulative(np.where(b.sold, b.time, 0.0)))
        payoff.append(np.where(b.sold, b.price * discount, 0.0))  # no sale pays 0
    payoff = np.concatenate(payoff)
    assert payoff.size == n
    three_sigma(f"discounted payoff posted at {t_post}",
                conditional_payoff_changing_list_exact(ctx, window), payoff.mean(),
                payoff.std(ddof=1) / math.sqrt(n))


class TestUpdatePrices:
    """The reprice rule run_evolution applies after each sale attempt, read
    off the pricing events of one run: its first attempt fails at R = 140,
    and one owner fails twice in a row."""

    @pytest.fixture(scope="class")
    def steps(self):
        log = run_evolution(make_config(), 50.0, seed=42)
        return [e for e in log.events
                if e.kind in ("OccupationStart", "PostForSale", "Sale", "Reprice")]

    def test_sale_resets_to_agreed_price_and_top_list(self, steps):
        cfg = make_config()
        after = [steps[i:i + 3] for i, e in enumerate(steps[:-2]) if e.kind == "Sale"]
        assert len(after) >= 3
        for sale, start, post in after:
            assert (start.kind, start.owner, start.price) == \
                ("OccupationStart", sale.owner + 1, sale.price)
            assert (post.kind, post.owner, post.price) == \
                ("PostForSale", sale.owner + 1, cfg.p_max)

    def test_failure_splits_toward_floor_and_relists_at_reservation(self, steps):
        assert [(e.kind, e.price) for e in steps[:4]] == [
            ("OccupationStart", 140.0), ("PostForSale", 200.0),
            ("Reprice", 120.0), ("PostForSale", 140.0)]

    def test_two_failures(self, steps):
        p_min = make_config().p_min
        twice = [steps[i:i + 4] for i in range(len(steps) - 3)
                 if [e.kind for e in steps[i:i + 3]] == ["Reprice", "PostForSale", "Reprice"]]
        assert twice
        for first, _, second, relist in twice:
            assert second.price == (first.price + p_min) / 2.0
            assert (relist.kind, relist.price) == ("PostForSale", first.price)


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

    def test_horizon_ends_an_owner_who_never_sells(self):
        # demand near zero: one owner posts at a crisis and fails every
        # attempt until one posted before the horizon ends past it
        cfg = EvolutionConfig(cir=CirParams(0.25, 0.1, 0.08, 0.09),
                              demand=DemandParams(1e-9, 1e-9))
        log = run_evolution(cfg, 12.0, seed=5)
        assert len(log.events) == 68
        assert [e.kind for e in log.events].count("OccupationStart") == 1
        assert {e.owner for e in log.events} == {0}
        assert [e.kind for e in log.events[-2:]] == ["NoSale", "Reprice"]
        assert log.events[-1].time > 12.0
        text = "\n".join(log.to_event_lines()).encode()
        assert hashlib.sha256(text).hexdigest() == \
            "de7fc1a273ced8a8fc0549c5fc7637f43ebd9634e87a2ae86255922c46f5f212"

    @pytest.mark.parametrize("cfg, horizon, seed", [
        (make_config(), 50.0, 1),
        (make_config(), 50.0, 2),
        # the no-sale horizon run above: its last events lie past the horizon
        (make_config(demand=DemandParams(1e-9, 1e-9)), 12.0, 5),
    ])
    def test_every_event_rate_is_its_scalar_lookup(self, cfg, horizon, seed):
        log = run_evolution(cfg, horizon, seed)
        assert len(log.events) > 1
        assert [e.rate.hex() for e in log.events] == \
            [float(log.path.rate_at(e.time)).hex() for e in log.events]

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
        # a failed attempt reprices to (R + p_min) / 2 and relists at the
        # old R; a sale makes its price the next owner's R, listed at p_max
        cfg = make_config()
        log = run_evolution(cfg, 50.0, seed=42)
        reservation, list_price = cfg.initial_reservation, cfg.initial_list
        sale_price = None
        n_sales = n_relists = 0
        for e in log.events:
            if e.kind == "OccupationStart":
                if sale_price is not None:
                    assert e.price == sale_price
                reservation = e.price
            elif e.kind == "PostForSale":
                assert e.price == list_price
                n_relists += list_price != cfg.p_max
            elif e.kind == "Reprice":
                expected = (reservation + cfg.p_min) / 2.0
                assert e.price == expected
                assert e.price < reservation
                assert e.price > cfg.p_min
                reservation, list_price = e.price, reservation
            elif e.kind == "Sale":
                assert e.price >= reservation or math.isclose(e.price, reservation)
                sale_price, list_price = e.price, cfg.p_max
                n_sales += 1
        assert n_sales > 0 and n_relists > 0

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

    def test_each_posting_time_draws_from_its_lanes(self, monkeypatch):
        # posting time i's attempts in a k- and a 2k-replication run: one
        # block draw over the lanes spawned from substream(seed, "price", i),
        # the reference lane draw; the k run's attempts are the first of
        # the 2k run's, and each point reads all n of its attempts
        cfg, seed, times, k = make_config(), 2**40 + 7, [2.0, 9.0, 16.0], 150
        runs = []
        for n in (k, 2 * k):
            record = record_engine(monkeypatch)
            points = expected_price_curve(cfg, times, n, seed)
            assert len(record.calls) == len(times)
            assert all(p.n_sales >= 2 for p in points)
            for i, (p, (ctx, t_star, start, size)) in enumerate(zip(points, record.calls)):
                lanes = engine_lanes(seed, "price", i)
                assert (size, start) == (n, states(lanes))
                attempts = record.attempts[i * n:(i + 1) * n]
                assert [a[:3] for a in attempts] == [tuple(x.tobytes() for x in w)
                                                     for w in reference_lanes(ctx, t_star,
                                                                              lanes, n)]
                assert p.n_sales == sum(np.frombuffer(a[3], dtype=bool)[0] for a in attempts)
            runs.append(record.attempts)
        short, long_ = runs
        assert len(short) == len(times) * k
        for i in range(len(times)):
            assert short[i * k:(i + 1) * k] == long_[i * 2 * k:i * 2 * k + k]

    @pytest.mark.parametrize("block", [stochastic._BLOCK, 64])
    def test_growing_n_keeps_the_first_attempts(self, monkeypatch, block):
        # 1,000 and 2,000 replications: the 2,000-run's first 1,000
        # attempts are the 1,000-run's, bit for bit; with blocks of 64
        # both runs cross count pieces and block edges
        monkeypatch.setattr(stochastic, "_BLOCK", block)
        cfg, seed = make_config(), 36
        short = record_engine(monkeypatch)
        p_short = expected_price_curve(cfg, [3.0], 1000, seed)[0]
        long_ = record_engine(monkeypatch)
        p_long = expected_price_curve(cfg, [3.0], 2000, seed)[0]
        assert len(short.attempts) == 1000
        assert short.attempts == long_.attempts[:1000]
        # more blocks than the 16 count pieces: some piece splits at a block edge
        assert block > 64 or short.blocks > -(-1000 // 64)
        assert p_short.t_star == p_long.t_star
        assert p_short.n_sales == sum(np.frombuffer(a[3], dtype=bool)[0]
                                      for a in long_.attempts[:1000])
        assert 0 < p_short.n_sales < p_long.n_sales


# the benchmark's posting times (perfbench/run.py, workload price)
BENCH_TIMES = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]


def frozen_cells(cfg, rates, gammas=None):
    """The checked _listed_args columns of one frozen solve per rate, as
    expected_price_curve builds them (gammas, if given, one per rate)."""
    R, L0 = cfg.initial_reservation, cfg.initial_list
    gammas = [cfg.gamma] * len(rates) if gammas is None else gammas
    return np.array([_listed_args(market_sim._frozen_market(cfg, r, L0), R, L0, g)
                     for r, g in zip(rates, gammas)]).T


class TestPostingBlockSolve:
    @pytest.mark.parametrize("initial_list", [200.0, 180.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 11, 2**40 + 7])
    def test_block_solve_is_compute_owt_frozen_bit_for_bit(self, seed, initial_list):
        # every posting time of the price benchmark on the seed's path:
        # the lockstep solve gives compute_owt_frozen's t_star and flag,
        # and expected_price_curve commits it at least tol; a list below
        # p_max = 200 tells the plain payoff from the exact one
        cfg = make_config(initial_list=initial_list)
        R, L0 = cfg.initial_reservation, cfg.initial_list
        path = market_sim._rate_path(cfg, max(BENCH_TIMES), seed)
        rates = path.rate_at(np.array(BENCH_TIMES)).tolist()
        t_star, boundary = _solve_listed(frozen_cells(cfg, rates), cfg.t_max, cfg.tol, False)
        points = expected_price_curve(cfg, BENCH_TIMES, 1, seed, path=path)
        for t_post, rate, t, edge, p in zip(BENCH_TIMES, rates, t_star.tolist(),
                                             boundary.tolist(), points):
            res = compute_owt_frozen(cfg, rate, R, L0)
            assert (t.hex(), edge) == (res.t_star.hex(), res.boundary), t_post
            assert p.t_star.hex() == max(res.t_star, cfg.tol).hex(), t_post

    def test_a_cell_on_the_boundary_reads_t_max(self):
        # a horizon of 0.1 years: with gamma = 0 the utility still rises
        # there and the cell lands on the boundary, while gamma = 5 peaks
        # inside it, the two kinds side by side in one block
        cfg = make_config(t_max=0.1)
        rates, gammas = [0.05, 0.09, 0.09, 0.14], [5.0, 0.0, 5.0, 0.0]
        t_star, boundary = _solve_listed(frozen_cells(cfg, rates, gammas),
                                         cfg.t_max, cfg.tol, False)
        assert boundary.tolist() == [False, True, False, True]
        for rate, gamma, t, edge in zip(rates, gammas, t_star.tolist(), boundary.tolist()):
            res = compute_owt_frozen(dataclasses.replace(cfg, gamma=gamma), rate,
                                     cfg.initial_reservation, cfg.initial_list)
            assert (t.hex(), edge) == (res.t_star.hex(), res.boundary)
        assert t_star[1] == t_star[3] == cfg.t_max
        point = expected_price_curve(dataclasses.replace(cfg, gamma=0.0), [2.0], 1, 3)[0]
        assert point.t_star == cfg.t_max

    def test_block_and_chunk_edges_change_no_bit(self, monkeypatch):
        # blocks of 3 cells scanned 2 at a time split the 10 posting times
        # at every kind of edge; no cell solves to nothing
        cfg = make_config()
        path = market_sim._rate_path(cfg, max(BENCH_TIMES), 5)
        cols = frozen_cells(cfg, path.rate_at(np.array(BENCH_TIMES)).tolist())
        whole = _solve_listed(cols, cfg.t_max, cfg.tol, False)
        monkeypatch.setattr(owt, "_BLOCK_CELLS", 3)
        monkeypatch.setattr(owt, "_CHUNK_CELLS", 2)
        split = _solve_listed(cols, cfg.t_max, cfg.tol, False)
        assert [a.tobytes() for a in split] == [a.tobytes() for a in whole]
        t_star, boundary = _solve_listed(cols[:, :0], cfg.t_max, cfg.tol, False)
        assert t_star.size == boundary.size == 0

    def test_no_posting_time_is_no_point(self, monkeypatch):
        # with a path or without one, and without one no path is drawn
        cfg = make_config()
        path = market_sim._rate_path(cfg, max(BENCH_TIMES), 5)
        assert expected_price_curve(cfg, [], 1, 5, path=path) == []
        monkeypatch.setattr(market_sim, "_rate_path", mock.Mock(side_effect=AssertionError))
        assert expected_price_curve(cfg, [], 1, 5) == []
        market_sim._rate_path.assert_not_called()


def test_block_engine_matches_the_per_attempt_engine_in_distribution():
    # fixed before the first run: seed 36, n = 4,000 attempts per engine
    # and context, 3 rate paths x 2 posting times, a 4-sigma gate on the
    # mean sale price and the no-sale share of each context (12 z-scores)
    cfg, seed, n = make_config(), 36, 4000
    R, L0 = cfg.initial_reservation, cfg.initial_list
    for s in (1, 2, 3):
        path = market_sim._rate_path(cfg, 12.0, s)
        for t_post in (2.0, 8.0):
            new = expected_price_curve(cfg, [t_post], n, seed, path=path)[0]
            # the per-attempt engine: reference_attempt in order from one
            # generator, resolved by the reference rule
            owt_t = compute_owt_frozen(cfg, float(path.rate_at(t_post)), R, L0).t_star
            t_star, ctx = market_sim._posting_step(cfg, path, t_post, owt_t, R, L0)
            rng = substream(seed, "per-attempt", s, int(t_post))
            old = [reference_rule(list(zip(*reference_attempt(ctx, t_star, rng))),
                                  ctx.list_at, R, t_star) for _ in range(n)]
            prices = np.array([o.price for o in old if o.sold])
            label = f"path {s}, posted at {t_post}"
            three_sigma(f"{label}: mean sale price", new.mean_price, prices.mean(),
                        math.hypot(new.stderr, prices.std(ddof=1) / math.sqrt(prices.size)),
                        sigmas=4.0)
            old_share = 1.0 - prices.size / n
            pooled = (old_share + new.no_sale_fraction) / 2.0
            three_sigma(f"{label}: no-sale share", new.no_sale_fraction, old_share,
                        math.sqrt(pooled * (1.0 - pooled) * 2.0 / n), sigmas=4.0)
