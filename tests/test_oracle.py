import dataclasses
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homesale import oracle, stochastic
from homesale.closed_form import MarketParams, thinned_payoff
from homesale.oracle import (McEstimate, ValidationReport, mc_auxiliary_payoff,
                             mc_listed_payoff, mc_path_payoff,
                             sigma0_table2_path, table2_context, validate_all)
from homesale.path_payoff import (ExponentialWithdrawals, PathContext,
                                  UniformOffers,
                                  conditional_payoff_changing_list_exact,
                                  conditional_payoff_no_list)
from homesale.stochastic import (RATE_FLOOR, CirParams, DemandParams, RatePath,
                                 simulate_cir, substream)


class TestMcAuxiliary:
    def test_no_offers_means_zero(self, market):
        m = MarketParams(0.0, market.mu, market.r, market.p_min, market.p_max)
        est = mc_auxiliary_payoff(1.0, m, 10_000, seed=1)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_heavy_discounting_kills_payoff(self, market):
        m = MarketParams(market.lam, market.mu, 100.0, market.p_min, market.p_max)
        est = mc_auxiliary_payoff(1.0, m, 100_000, seed=2)
        assert est.mean < 1e-3

    def test_reproducible_per_seed(self, market):
        a = mc_auxiliary_payoff(1.0, market, 50_000, seed=3)
        b = mc_auxiliary_payoff(1.0, market, 50_000, seed=3)
        assert a == b

    def test_a_poisson_mean_above_the_cap_raises(self, market):
        m = MarketParams(2e6, market.mu, market.r, market.p_min, market.p_max)
        with pytest.raises(ValueError, match=re.escape("Poisson mean 2e+06 per replication "
                                                       "exceeds the cap of 1e+06")):
            mc_auxiliary_payoff(1.0, m, 10, seed=1)
        # the path oracle: k1 = 200 at RATE_FLOOR is 2e6 offers a year
        ctx = dataclasses.replace(table2_context(sigma0_table2_path(1.5)),
                                  demand=DemandParams(200.0, 1000.0),
                                  path=RatePath(1.0 / 252.0, np.zeros(400)))
        with pytest.raises(ValueError, match="Poisson mean .* exceeds the cap"):
            mc_path_payoff(ctx, 1.0, "changing", 10, seed=1)


class TestMcListed:
    def test_top_list_reduces_to_thinned(self, market):
        est = mc_listed_payoff(2.0, market, 140.0, market.p_max, 200_000, seed=5)
        z = (thinned_payoff(2.0, market, 140.0) - est.mean) / est.stderr
        assert abs(z) <= 3.0

    def test_everything_at_top_pays_nothing(self, market):
        est = mc_listed_payoff(2.0, market, market.p_max, market.p_max,
                               10_000, seed=6)
        assert est.mean == 0.0


class TestMcPath:
    def test_tiny_horizon(self):
        ctx = table2_context(sigma0_table2_path(0.5))
        est = mc_path_payoff(ctx, 1e-4, "changing", 10_000, seed=7)
        assert est.mean < 0.5

    def test_no_list_with_unreachable_reservation(self):
        path = sigma0_table2_path(1.5)
        ctx = PathContext(path=path, list_price=200.0, zeta=0.0,
                          offers=UniformOffers(100.0, 200.0),
                          withdrawals=ExponentialWithdrawals(10.0),
                          reservation=200.0, demand=DemandParams(0.5, 1000.0))
        est = mc_path_payoff(ctx, 1.0, "none", 10_000, seed=8)
        assert est.mean == 0.0

    def test_rejects_unknown_mode(self):
        ctx = table2_context(sigma0_table2_path(0.5))
        with pytest.raises(ValueError):
            mc_path_payoff(ctx, 0.2, "bogus", 100, seed=0)

    @pytest.mark.parametrize("t", [3.0, 1.0 + 1e-9, 0.0, -1.0, math.nan])
    def test_rejects_t_off_the_path(self, t):
        # the conditional payoffs raise here too; nothing is clamped
        ctx = table2_context(sigma0_table2_path(1.0))
        with pytest.raises(ValueError):
            mc_path_payoff(ctx, t, "changing", 100, seed=0)

    def test_accepts_the_horizon_within_slack(self):
        path = sigma0_table2_path(1.0)
        ctx = table2_context(path)
        for t in (path.horizon, path.horizon * (1.0 + 1e-13)):
            assert mc_path_payoff(ctx, t, "none", 100, seed=0).n == 100


class TestBracket:
    """The path oracle thins against bound and keeps candidates under
    squeeze unread; both must hold between the path's nodes, not only
    on them."""

    # The rate rises from node 0 to node 1 while the list falls fast, so
    # the intensity peaks between them: 1.2266 at its largest on [0, 0.25]
    # against 1.0482 at most on the nodes and t.
    CTX = PathContext(path=RatePath(0.25, [0.1, 0.2, 0.3, 0.3, 0.3]), list_price=183.76,
                      zeta=100.0, offers=UniformOffers(100.0, 200.0),
                      withdrawals=ExponentialWithdrawals(10.0), reservation=125.28,
                      demand=DemandParams(0.05, 100.0))

    @pytest.mark.parametrize("t", [0.25, 0.5])
    def test_oracle_matches_the_exact_forms_between_nodes(self, t):
        changing, none = oracle._mc_path(self.CTX, t, ("changing", "none"), 400_000, 7)
        for est, analytic in ((changing, conditional_payoff_changing_list_exact(self.CTX, t)),
                              (none, conditional_payoff_no_list(self.CTX, t))):
            assert abs(est.z_against(analytic)) <= 3.0, (est, analytic)


@st.composite
def _bracket_cases(draw):
    """(context, t): a CIR path with sigma > 0, often at 0 so that the
    rate floor binds, on one of four steps, and a list decaying at zeta
    up to 100; t anywhere on the path or on a node."""
    dt = draw(st.sampled_from([1 / 252, 1 / 52, 0.1, 0.25]))
    cir = CirParams(kappa=draw(st.floats(0.1, 2.0)), theta=draw(st.floats(0.005, 0.1)),
                    sigma=draw(st.floats(0.05, 1.5)), r0=draw(st.floats(0.001, 0.15)))
    path = simulate_cir(cir, draw(st.floats(dt, 3.0)), dt, seed=draw(st.integers(0, 2**32 - 1)))
    k1, k2 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2000.0))
    assume(k1 > 0 or k2 > 0)
    R = draw(st.floats(100.0, 200.0))
    ctx = PathContext(path=path, list_price=draw(st.floats(R, 300.0)),
                      zeta=draw(st.floats(0.0, 100.0)), offers=UniformOffers(100.0, 200.0),
                      withdrawals=ExponentialWithdrawals(10.0), reservation=R,
                      demand=DemandParams(k1, k2))
    t = draw(st.one_of(st.floats(0.0, path.horizon, exclude_min=True),
                       st.sampled_from(path.times[1:].tolist())))
    return ctx, t


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bracket_cases())
def test_bracket_holds_densely_on_the_window(case):
    ctx, t = case
    squeeze, bound = oracle._bracket(ctx, t)
    a = np.linspace(0.0, t, 20_001)
    lam = oracle._path_tools(ctx)[0](a, ctx.list_at(a))
    assert squeeze <= lam.min() and lam.max() <= bound


def _context(mu, reservation, list_price):
    return PathContext(path=sigma0_table2_path(1.5), list_price=list_price, zeta=1.0,
                       offers=UniformOffers(100.0, 200.0),
                       withdrawals=ExponentialWithdrawals(mu),
                       reservation=reservation, demand=DemandParams(0.5, 1000.0))


_DEFAULT_BLOCK = stochastic._BLOCK


class TestSharedDraws:
    """The bodies behind validate_all read several estimates from one
    simulation; each must equal its separate public call exactly, and
    no payoff depends on the block size of the offer draw."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # count pieces of 40 replications, the last one partial, each of
        # many blocks
        monkeypatch.setattr(stochastic, "_BLOCK", 40)

    @pytest.mark.parametrize("mu, R", [(5.0, 140.0), (0.0, 140.0), (5.0, 250.0)])
    def test_auxiliary(self, mu, R):
        m = MarketParams(8.0, mu, 0.1, 100.0, 200.0)
        shared = oracle._mc_auxiliary(0.5, m, 700, 3, (m.p_min, R))
        assert shared == [mc_auxiliary_payoff(0.5, m, 700, 3),
                          mc_auxiliary_payoff(0.5, m, 700, 3, reservation=R)]
        if R > m.p_max:
            assert shared[1].mean == 0.0

    @pytest.mark.parametrize("mu, R, list_price", [(10.0, 140.0, 200.0),
                                                   (0.0, 140.0, 180.0),
                                                   (10.0, 250.0, 260.0)])
    def test_path(self, mu, R, list_price):
        ctx = _context(mu, R, list_price)
        modes = ("changing", "none", "constant")
        shared = oracle._mc_path(ctx, 1.0, modes, 700, 4)
        assert shared == [mc_path_payoff(ctx, 1.0, mode, 700, 4) for mode in modes]
        if R > 200.0:
            assert all(est.mean == 0.0 for est in shared)

    # lam = 0; mu = 0; R above every offer; 120 offers a replication
    # against blocks of 40
    @pytest.mark.parametrize("lam, mu, T, R, L", [(0.0, 5.0, 1.0, 140.0, 180.0),
                                                  (8.0, 0.0, 0.5, 140.0, 180.0),
                                                  (8.0, 5.0, 0.5, 250.0, 260.0),
                                                  (12.0, 5.0, 10.0, 140.0, 180.0)])
    def test_block_size_never_changes_a_payoff(self, monkeypatch, lam, mu, T, R, L):
        # every replication's payoffs, bit for bit; the estimates sum them
        # once per count piece, so only their last bits may follow the
        # block size
        m = MarketParams(lam, mu, 0.1, 100.0, 200.0)
        ctx = _context(mu, R, L)
        modes = ("changing", "none", "constant")

        def payoffs():
            with monkeypatch.context() as mp:
                calls = _record_payoffs(mp)
                ests = [*oracle._mc_auxiliary(T, m, 700, 5, (m.p_min, R)),
                        mc_auxiliary_payoff(T, m, 700, 5, reservation=R),
                        mc_listed_payoff(T, m, R, L, 700, 5),
                        *oracle._mc_path(ctx, 1.0, modes, 700, 5)]
            # the sums behind each estimate skip and repeat no block
            _assert_estimates_sum_the_payoffs(ests, calls)
            return ests, [_payoff_bytes(blocks) for blocks in calls]

        small, small_payoffs = payoffs()
        with monkeypatch.context() as mp:
            calls = _record_blocks(mp)
            oracle._mc_path(ctx, 1.0, modes, 700, 5)
        # one draw, read once, in more blocks than its 18 count pieces
        assert len(calls) == 1 and len(calls[0]) > -(-700 // 40)
        monkeypatch.setattr(stochastic, "_BLOCK", _DEFAULT_BLOCK)
        assert payoffs()[1] == small_payoffs
        if lam == 0.0 or R > m.p_max:
            assert small[3].mean == 0.0 and small[2].mean == 0.0

    def test_no_two_simulations_share_a_key(self, monkeypatch):
        # validate_all keys each (T, lam) cell and each path t by a row
        # label, so cells with equal lam*T (2.0 here) draw different offers
        keys, replicate = [], oracle._replicate

        def recorded(n, seed, key, *rest):
            keys.append(key)
            return replicate(n, seed, key, *rest)

        monkeypatch.setattr(oracle, "_replicate", recorded)
        validate_all(n=300, seed=1, t_values=(1.0, 2.0), lam_values=(1.0, 2.0),
                     path_t_values=(0.5, 1.0))
        assert len(keys) == len(set(keys)) == 2 * 4 + 2 * 2
        equal_lam_T = ("aux T=1.0 lam=2.0", "aux T=2.0 lam=1.0")
        assert set(equal_lam_T) <= set(keys)
        counts = [substream(1, key).spawn(1)[0].poisson(2.0, 300) for key in equal_lam_T]
        assert counts[0].sum() > 0 and not np.array_equal(*counts)


def _record_blocks(mp):
    """Make oracle._blocks record each call's blocks, (replications,
    entries), in the list this returns."""
    calls, blocks = [], oracle._blocks

    def record(spawn, mean, k, fields):
        drawn = list(blocks(spawn, mean, k, fields))
        calls.append([(k, rep.size) for k, rep, *_ in drawn])
        return iter(drawn)

    mp.setattr(oracle, "_blocks", record)
    return calls


def _record_payoffs(mp):
    """Make oracle._replicate record, per call, the payoff arrays of each
    block, in the list this returns."""
    calls, replicate = [], oracle._replicate

    def recorded(n, seed, key, mean, fields, block_payoffs):
        blocks = []
        calls.append(blocks)

        def block(*drawn):
            blocks.append(block_payoffs(*drawn))
            return blocks[-1]
        return replicate(n, seed, key, mean, fields, block)

    mp.setattr(oracle, "_replicate", recorded)
    return calls


def _payoff_bytes(blocks):
    """Each estimate's payoffs of every replication, as bytes."""
    return [np.concatenate(x).tobytes() for x in zip(*blocks)]


def _assert_estimates_sum_the_payoffs(ests, calls):
    """Each McEstimate of ests, in the order of the _replicate calls
    recorded in `calls`, is the mean and standard error of its recorded
    payoffs."""
    payoffs = [np.concatenate(x) for blocks in calls for x in zip(*blocks)]
    assert len(payoffs) == len(ests)
    for est, x in zip(ests, payoffs):
        assert est.n == x.size
        assert est.mean == pytest.approx(x.mean(), rel=1e-12, abs=1e-300)
        assert est.stderr == pytest.approx(x.std(ddof=1) / math.sqrt(x.size),
                                           rel=1e-12, abs=1e-300)


_GROW = {
    "aux": lambda m, n: mc_auxiliary_payoff(1.0, m, n, seed=4),
    "listed": lambda m, n: mc_listed_payoff(1.0, m, 140.0, 180.0, n, seed=4),
    "path": lambda m, n: mc_path_payoff(table2_context(sigma0_table2_path(1.5)), 1.0,
                                        "changing", n, seed=4),
}


@pytest.mark.parametrize("block", [_DEFAULT_BLOCK, 40])
@pytest.mark.parametrize("estimator", list(_GROW))
def test_growing_n_keeps_earlier_replications(market, monkeypatch, estimator, block):
    # the first 1,000 payoffs of a 2,000-replication run are those of a
    # 1,000-replication run, bit for bit; with blocks of 40 both runs
    # cross count pieces and block edges
    monkeypatch.setattr(stochastic, "_BLOCK", block)
    calls = _record_payoffs(monkeypatch)
    small, large = _GROW[estimator](market, 1000), _GROW[estimator](market, 2000)
    (short,), (long_,) = (_payoff_bytes(blocks) for blocks in calls)
    assert len(short) == 1000 * 8 and long_[:len(short)] == short
    assert np.count_nonzero(np.frombuffer(short)) > 0
    assert block > 40 or len(calls[0]) > -(-1000 // 40)
    assert abs(small.mean - large.mean) < 4.0 * small.stderr


def _one_piece_path(ctx, t, modes, n, seed):
    """The path oracle's payoffs, as bytes, as they would be without
    blocks: the n candidate counts, then every candidate's time,
    acceptance uniform, value and delay, each drawn in one piece from its
    lane, every candidate tested against the intensity, and the kept
    ones taken."""
    intensity, cum_rate = oracle._path_tools(ctx)
    _, bound = oracle._bracket(ctx, t)
    disc_t = math.exp(-float(cum_rate(t)))
    R = ctx.reservation
    lanes = substream(seed, "mc-path").spawn(5)
    n_cand = lanes[0].poisson(bound * t, n)
    total = int(n_cand.sum())
    a_all = lanes[1].uniform(0.0, t, total)
    lists_all = ctx.list_at(a_all)
    idx, rep = oracle._kept(lanes[2].uniform(0.0, 1.0, total) * bound
                            < intensity(a_all, lists_all),
                            np.repeat(np.arange(n), n_cand))
    a = a_all.take(idx)
    value = np.asarray(ctx.offers.sample(lanes[3], total), dtype=float).take(idx)
    delay = np.asarray(ctx.withdrawals.sample(lanes[4], total), dtype=float).take(idx)
    alive = (value >= R) & (delay >= t - a)
    above = value >= lists_all.take(idx)
    never = np.zeros(a.size, bool)
    return [oracle._list_rule(rep, n, a, value, hit, alive & ~hit,
                              lambda s: np.exp(-cum_rate(s)), disc_t).tobytes()
            for hit in (never if mode == "none" else above for mode in modes)]


# Contexts that stress the squeeze, the lower bound on the intensity
# under which a candidate is kept without evaluating the intensity.
_SQUEEZE_CASES = {
    "rate floor": dict(path=simulate_cir(CirParams(0.5, 0.02, 0.5, 0.05), 1.5, seed=1),
                       demand=DemandParams(0.001, 1000.0)),
    "k1 = 0": dict(demand=DemandParams(0.0, 1000.0)),
    "k2 = 0": dict(demand=DemandParams(0.5, 0.0)),
    "constant list": dict(zeta=0.0),
    # a constant intensity: the squeeze keeps every candidate it can
    "k1 = 0, constant list": dict(demand=DemandParams(0.0, 1000.0), zeta=0.0),
    "large zeta": dict(zeta=50.0),
    # the intensity is k1/0.1, the squeeze's base, on [0, 0.5] and twice
    # that after: a squeeze a hair too high keeps candidates it must not
    "tight squeeze": dict(path=RatePath(0.1, np.r_[np.full(6, 0.1), np.full(10, 0.05)]),
                          demand=DemandParams(2.0, 0.0)),
    "mu = 0": dict(withdrawals=ExponentialWithdrawals(0.0)),
    "R above every offer": dict(reservation=250.0, list_price=260.0),
}


class TestBlockedPathOracle:
    """The path oracle draws in blocks, in one pass, and evaluates the
    intensity only where the squeeze does not decide; its payoffs are
    those of the one-piece draw, bit for bit."""

    MODES = ("changing", "none", "constant")

    @pytest.mark.parametrize("block", [7, _DEFAULT_BLOCK])
    @pytest.mark.parametrize("case", list(_SQUEEZE_CASES))
    def test_equals_the_one_piece_draw(self, monkeypatch, case, block):
        monkeypatch.setattr(stochastic, "_BLOCK", block)
        ctx = dataclasses.replace(_context(10.0, 140.0, 200.0), **_SQUEEZE_CASES[case])
        if case == "rate floor":
            assert ctx.path.values[ctx.path.times <= 1.0].min() < RATE_FLOOR
        calls = _record_payoffs(monkeypatch)
        got = oracle._mc_path(ctx, 1.0, self.MODES, 700, 9)
        assert _payoff_bytes(calls[0]) == _one_piece_path(ctx, 1.0, self.MODES, 700, 9)
        _assert_estimates_sum_the_payoffs(got, calls)
        if case == "R above every offer":
            assert all(est.mean == 0.0 for est in got)

    def test_a_run_without_candidates(self, monkeypatch):
        ctx = _context(10.0, 140.0, 200.0)
        calls, payoffs = _record_blocks(monkeypatch), _record_payoffs(monkeypatch)
        got = oracle._mc_path(ctx, 1e-9, self.MODES, 50, 9)
        assert calls and all(size == 0 for blocks in calls for _, size in blocks)
        assert got == [McEstimate(0.0, 0.0, 50)] * 3
        assert _payoff_bytes(payoffs[0]) == _one_piece_path(ctx, 1e-9, self.MODES, 50, 9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 300), block=st.integers(1, 64),
       lam=st.sampled_from([0.0, 0.4, 3.0, 30.0]), mu=st.sampled_from([0.0, 5.0]))
def test_blocked_offers_are_the_one_shot_draw(seed, k, block, lam, mu):
    # the counts come in pieces of `block` replications from the first
    # lane, and the blocks cut one draw of each field from its own lane,
    # in replication order
    m = MarketParams(lam, mu, 0.1, 100.0, 200.0)
    T = 1.5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochastic, "_BLOCK", block)
        blocks = list(stochastic._blocks(np.random.default_rng(seed).spawn, lam * T, k,
                                         oracle._offers(m, T)))
    ref = np.random.default_rng(seed).spawn(4)
    counts = ref[0].poisson(lam * T, k)
    total = int(counts.sum())
    one_shot = (ref[1].uniform(0.0, T, total), ref[2].uniform(100.0, 200.0, total),
                ref[3].exponential(1.0 / mu, total) if mu > 0 else np.full(total, np.inf))
    lo = 0
    for k_block, rep, *fields in blocks:
        assert rep.tobytes() == np.repeat(np.arange(k_block), counts[lo:lo + k_block]).tobytes()
        assert all(f.size == rep.size for f in fields)
        assert rep.size <= block or k_block == 1
        lo += k_block
    assert lo == k
    for field, expected in zip(zip(*(b[2:] for b in blocks)), one_shot):
        assert np.concatenate(field).tobytes() == expected.tobytes()
    if lam == 0.0:  # one block per count piece
        assert len(blocks) == -(-k // block)


@st.composite
def _masked_offers(draw):
    """(counts, mask, positive values): replications of 0 to 6 entries,
    the mask random, all false or all true."""
    counts = np.array(draw(st.lists(st.integers(0, 6), min_size=1, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "none", "all"]))
    total = int(counts.sum())
    mask = {"random": rng.random(total) < 0.5, "none": np.zeros(total, bool),
            "all": np.ones(total, bool)}[kind]
    return counts, mask, rng.uniform(0.5, 3.0, total)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_masked_offers())
def test_reducing_the_kept_offers_is_reducing_the_masked_ones(offers):
    counts, mask, x = offers
    k = counts.size
    rep = np.repeat(np.arange(k), counts)
    idx, rep_kept = oracle._kept(mask, rep)
    for ufunc, fill in ((np.maximum, 0.0), (np.minimum, np.inf)):
        kept = oracle._segment(ufunc, x.take(idx), rep_kept, k, fill)
        masked = oracle._segment(ufunc, np.where(mask, x, fill), rep, k, fill)
        loop = np.array([ufunc.reduce(x[(rep == i) & mask], initial=fill)
                         for i in range(k)])
        assert kept.tobytes() == masked.tobytes() == loop.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 200),
       resv=st.sampled_from([50.0, 100.0, 140.0, 199.9, 200.0, 250.0]))
def test_one_best_survivor_gives_every_reservation(seed, k, resv):
    # the best survivor clears a reservation exactly when some survivor
    # does, and then it is the best of those (offers are > 0)
    m = MarketParams(5.0, 5.0, 0.1, 100.0, 200.0)
    T, disc = 0.7, math.exp(-0.07)
    for k_block, rep, arrival, value, delay in stochastic._blocks(
            np.random.default_rng(seed).spawn, m.lam * T, k, oracle._offers(m, T)):
        survived = delay >= T - arrival
        idx, rep_survived = oracle._kept(survived, rep)
        best = oracle._segment(np.maximum, value.take(idx), rep_survived, k_block, 0.0)
        per_reservation = disc * oracle._segment(
            np.maximum, np.where(survived & (value >= resv), value, 0.0), rep, k_block, 0.0)
        derived = disc * np.where(best >= resv, best, 0.0)
        assert derived.tobytes() == per_reservation.tobytes()


class TestBoundedMemory:
    """The offer oracles hold one block of offers at a time, and the path
    oracle one block of candidates, so their peak memory grows with
    neither lam * T nor bound * t."""

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("estimator", ["listed", "auxiliary"])
    def test_peak_is_flat_in_lambda_T(self, estimator):
        m = MarketParams(12.0, 5.0, 0.1, 100.0, 200.0)

        def run(T):
            if estimator == "listed":
                return lambda: mc_listed_payoff(T, m, 140.0, 180.0, 25_000, 1)
            return lambda: mc_auxiliary_payoff(T, m, 25_000, 1)

        short, long = self.peak_bytes(run(5.0)), self.peak_bytes(run(50.0))
        assert long < 16e6
        assert long <= 2 * short

    def test_path_peak_is_flat_in_t(self):
        ctx = table2_context(sigma0_table2_path(20.5))

        def run(t):
            return lambda: oracle._mc_path(ctx, t, ("changing", "none"), 25_000, 1)

        short, long = self.peak_bytes(run(2.0)), self.peak_bytes(run(20.0))
        assert long < 16e6
        assert long <= 2 * short


class TestValidateAll:
    def quick_report(self, n=40_000, path_t_values=(1.0,), **kw):
        return validate_all(n=n, seed=123, t_values=(1.0,), lam_values=(5.0,),
                            path_t_values=path_t_values, **kw)

    def test_default_checks_pass(self):
        report = self.quick_report()
        assert report.passed, report.format_table()
        names = [r.name for r in report.rows]
        assert any(n.startswith("listed-gap") for n in names)
        assert any(n.startswith("path-changing-gap") for n in names)
        exact = [r for r in report.rows if r.name.startswith("path-changing-exact")]
        assert exact and all(r.verdict == "pass" for r in exact)

    def test_gap_rows_are_informational(self):
        report = self.quick_report()
        gaps = [r for r in report.rows
                if r.name.startswith(("listed-gap ", "path-changing-gap "))]
        assert len(gaps) == 2
        assert all(r.verdict == "report" for r in gaps)

    def test_low_replication_run_is_flagged_not_vacuously_green(self):
        report = self.quick_report(n=400, path_t_values=())
        assert any(r.low_power for r in report.rows if r.verdict != "report")
        table = report.format_table()
        assert "low power" in table

    def test_perturbed_formula_is_caught(self, monkeypatch):
        # harness sanity: nudge one closed form and make sure the table
        # actually turns red
        original = oracle.auxiliary_payoff
        monkeypatch.setattr(
            oracle, "auxiliary_payoff",
            lambda T, m: original(T, MarketParams(m.lam * 1.05, m.mu, m.r,
                                                  m.p_min, m.p_max)))
        report = validate_all(n=100_000, seed=123, t_values=(1.0,),
                              lam_values=(5.0,), path_t_values=())
        assert not report.passed
        assert any(r.verdict == "FAIL" and r.name.startswith("aux") for r in report.rows)

    def test_rows_equal_the_public_estimators(self, monkeypatch):
        # count pieces of 40 replications, the last one partial: each
        # row's mean and stderr are exactly those of a separate call of
        # the body behind its public estimator, under the row's
        # simulation key
        monkeypatch.setattr(stochastic, "_BLOCK", 40)
        n, seed, T, lam, t = 700, 11, 0.5, 3.0, 0.5
        report = validate_all(n=n, seed=seed, t_values=(T,), lam_values=(lam,),
                              path_t_values=(t,))
        rows = {r.name: (r.mc_mean, r.mc_stderr) for r in report.rows}
        m = MarketParams(lam, 5.0, 0.1, 100.0, 200.0)
        path = sigma0_table2_path(t + 0.1)
        ctx, cell = table2_context(path), f"T={T} lam={lam}"
        (aux,), (thinned,) = (oracle._mc_auxiliary(T, m, n, seed, (resv,), f"aux {cell}")
                              for resv in (m.p_min, 140.0))
        (changing,), (none,), (constant,) = (
            oracle._mc_path(c, t, (mode,), n, seed, f"path-{key} t={t}")
            for c, mode, key in [(ctx, "changing", "changing-exact"),
                                 (ctx, "none", "changing-exact"),
                                 (table2_context(path, constant_list=True), "constant",
                                  "constant")])
        expected = {
            f"aux {cell}": aux,
            f"thinned {cell}": thinned,
            f"listed-exact {cell}": oracle._mc_listed(T, m, 140.0, 180.0, n, seed,
                                                      f"listed-exact {cell}"),
            f"path-changing-exact t={t}": changing,
            f"path-no-list t={t}": none,
            f"path-constant t={t}": constant,
        }
        for name, est in expected.items():
            assert rows[name] == (est.mean, est.stderr), name

    def test_pool_is_no_larger_than_the_job_list(self, monkeypatch):
        # one simulation job per (T, lam) and one per path t
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", SerialPool)
        report = validate_all(n=200, seed=1, t_values=(1.0, 2.0), lam_values=(5.0,),
                              path_t_values=(0.5,), workers=10**6)
        assert sizes == [3]
        assert len(report.rows) == 2 * 4 + 1 + 4

    def test_gap_sign_row_is_read_from_the_listed_rows(self, monkeypatch):
        # the listed-gap analytic minus the listed-exact analytic of each
        # cell, all read from the same report; each listed form is
        # evaluated once per cell
        calls = []
        for name in ("listed_payoff", "listed_payoff_exact"):
            def counted(*args, _f=getattr(oracle, name), _name=name):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(oracle, name, counted)
        report = validate_all(n=200, seed=1, t_values=(0.5, 2.0), lam_values=(1.0, 8.0),
                              path_t_values=())
        analytic = {r.name: r.analytic for r in report.rows}
        gaps = [analytic[f"listed-gap {cell}"] - analytic[f"listed-exact {cell}"]
                for cell in (f"T={T} lam={lam}" for T in (0.5, 2.0) for lam in (1.0, 8.0))]
        (row,) = [r for r in report.rows if r.name == "listed-gap-sign-constant"]
        assert row.analytic == max(gaps)
        one_sign = all(g < 0 for g in gaps) or all(g > 0 for g in gaps)
        assert row.verdict == ("pass" if one_sign else "FAIL")
        assert sorted(calls) == ["listed_payoff"] * 4 + ["listed_payoff_exact"] * 4

    @pytest.mark.parametrize("t_values, lam_values, path_t_values", [
        ((), (5.0,), (0.5, 1.0)), ((1.0,), (), (0.5, 1.0)), ((), (), (0.5,)), ((), (), ())])
    def test_empty_cell_grid_leaves_only_the_path_rows(self, t_values, lam_values,
                                                       path_t_values):
        report = validate_all(n=200, seed=1, t_values=t_values, lam_values=lam_values,
                              path_t_values=path_t_values)
        full = validate_all(n=200, seed=1, t_values=(1.0,), lam_values=(5.0,),
                            path_t_values=path_t_values)
        assert report.rows == [r for r in full.rows if r.name.startswith("path-")]
        assert len(report.rows) == 4 * len(path_t_values)

    def test_empty_path_grid_drops_only_the_path_rows(self):
        # bit for bit, and the footer counts exactly the pass/FAIL rows
        def bits(rows):
            return [tuple(struct.pack("<d", v) if isinstance(v, float) else v
                          for v in dataclasses.astuple(r)) for r in rows]

        full = validate_all(n=2000, seed=1)
        no_paths = validate_all(n=2000, seed=1, path_t_values=())
        assert bits(no_paths.rows) == bits(
            [r for r in full.rows if not r.name.startswith("path-")])
        for report in (full, no_paths):
            checks = [r for r in report.rows if r.verdict in ("pass", "FAIL")]
            passed = sum(r.verdict == "pass" for r in checks)
            footer = report.format_table().splitlines()[-1]
            assert footer.startswith(f"{passed}/{len(checks)} checks passed ")

    def test_csv_rows_match_schema(self):
        report = self.quick_report(n=2000, path_t_values=())
        for row in report.to_csv_rows():
            assert len(row) == 6
            name, analytic, mc_mean, mc_stderr, z, verdict = row
            assert isinstance(name, str) and isinstance(verdict, str)
