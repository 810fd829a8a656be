import dataclasses
import hashlib
import math
import zlib

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cir_ensemble, cir_ensemble_finals, cir_mean, three_sigma
from homesale import stochastic
from homesale.path_payoff import ExponentialWithdrawals, UniformOffers
from homesale.path_payoff import simpson_nodes
from homesale.stochastic import (DEFAULT_DT, CirParams, DemandParams, RatePath,
                                 sample_nhpp, simulate_cir, substream)


def simpson_integral(f, t, n_nodes=201):
    x, w = simpson_nodes(0.0, t, n_nodes)
    return float(w @ f(x))


class TestCir:
    def test_zero_vol_follows_mean_reversion_ode(self, sim_cir):
        p = CirParams(sim_cir.kappa, sim_cir.theta, 0.0, sim_cir.r0)
        dt = 1.0 / 252.0
        path = simulate_cir(p, 10.0, dt, seed=1)
        ode = p.theta + (p.r0 - p.theta) * math.exp(-p.kappa * 10.0)
        assert abs(path.values[-1] - ode) < dt

    def test_ensemble_mean_matches_analytic(self, sim_cir):
        finals, _ = cir_ensemble_finals(sim_cir, 10.0, 1.0 / 252.0, 20_000, seed=2)
        three_sigma("cir mean", cir_mean(sim_cir, 10.0), finals.mean(),
                    finals.std(ddof=1) / math.sqrt(finals.size))

    def test_single_step_horizon(self, sim_cir):
        path = simulate_cir(sim_cir, 1.0 / 252.0, 1.0 / 252.0, seed=3)
        assert path.values.size == 2
        assert path.values[0] == 0.09

    def test_reproducible_and_nonnegative(self, sim_cir):
        rough = CirParams(0.25, 0.1, 1.5, 0.09)  # vol large enough to hit zero
        a = simulate_cir(rough, 5.0, 1.0 / 252.0, seed=4)
        b = simulate_cir(rough, 5.0, 1.0 / 252.0, seed=4)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.all(a.values >= 0.0)
        assert np.any(a.values == 0.0)  # the floor actually engaged

    def test_rejects_bad_grid(self, sim_cir):
        with pytest.raises(ValueError):
            simulate_cir(sim_cir, 0.5, 1.0, seed=0)

    @pytest.mark.parametrize("horizon, dt", [(1e308, 1.0 / 252.0), (50.0, 1e-300),
                                             (2.0 ** 63, 1.0)])
    def test_rejects_a_step_count_beyond_any_index(self, sim_cir, horizon, dt):
        with pytest.raises(ValueError, match=r"horizon.*dt"):
            simulate_cir(sim_cir, horizon, dt, seed=0)

    def test_shorter_horizon_is_exact_prefix(self, sim_cir):
        dt = 1.0 / 252.0
        short = simulate_cir(sim_cir, 0.5, dt, substream(5, "payoff-path", 3))
        long = simulate_cir(sim_cir, 2.0, dt, substream(5, "payoff-path", 3))
        assert long.values.size > short.values.size
        assert np.array_equal(long.values[:short.values.size], short.values)
        np.testing.assert_array_equal(long._cumulative(short.times),
                                      short._cumulative(short.times))


    @pytest.mark.parametrize("sigma", [0.08, 1.5])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_single_path_equals_one_path_ensemble_bitwise(self, sim_cir, sigma, seed):
        p = CirParams(sim_cir.kappa, sim_cir.theta, sigma, sim_cir.r0)
        one = simulate_cir(p, 20.0, DEFAULT_DT, seed).values
        ens = np.concatenate(list(cir_ensemble(p, 20.0, DEFAULT_DT, 1, seed)))
        assert one.tobytes() == ens.tobytes()  # sign bits of floored zeros too
        if sigma > 1:
            assert np.any(one == 0.0)

    def test_default_221_year_path_pinned(self, sim_cir):
        # the rate path behind `evolve --horizon 200 --seed 1`
        path = simulate_cir(sim_cir, 221.0, DEFAULT_DT, substream(1, "rates"))
        assert path.values.size == 55_693
        assert hashlib.sha256(path.values.tobytes()).hexdigest() == \
            "735db11a2433f067e68441cac38b758da238ec7399b3d97815a55c3950da4f5f"

    def test_overflowing_path_is_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_cir(CirParams(0.25, 0.1, 1e300, 0.09), 1.0)

    @pytest.mark.parametrize("field", ["kappa", "theta", "sigma", "r0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite(self, sim_cir, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(sim_cir, **{field: bad})


class TestRatePath:
    def test_interpolation_and_cumulative(self):
        path = RatePath(0.5, np.array([0.1, 0.2, 0.1]))
        assert path.horizon == 1.0
        assert path.rate_at(0.25) == pytest.approx(0.15)
        assert path._cumulative(1.0) == pytest.approx(0.15)
        shifted = path.shifted(0.5, 0.5)
        assert shifted.values[0] == pytest.approx(0.2)

    def test_shifted_covers_its_span_and_raises_past_the_end(self):
        path = RatePath(0.5, np.array([0.1, 0.2, 0.3, 0.4]))
        seg = path.shifted(0.5, 0.75)
        assert seg.horizon == 1.0
        np.testing.assert_array_equal(seg.values, [0.2, 0.3, 0.4])
        for start, horizon in ((0.5, 1.01), (0.6, 0.8), (0.5, 5.0)):
            with pytest.raises(ValueError, match="outside the rate path"):
                path.shifted(start, horizon)

    def test_evaluation_past_either_end_raises(self):
        path = RatePath(0.5, np.array([0.1, 0.2, 0.1]))
        for t in (1.01, -0.01, np.array([0.5, 1.5]), np.nan):
            with pytest.raises(ValueError):
                path.rate_at(t)

    def test_rounding_slack_and_empty_input(self):
        path = RatePath(0.5, np.array([0.1, 0.2, 0.1]))
        assert path.rate_at(1.0 + 1e-13) == pytest.approx(0.1)
        assert path._cumulative(-1e-13) == pytest.approx(0.0, abs=1e-12)
        assert path.rate_at(np.array([])).size == 0
        assert path._cumulative(np.array([])).size == 0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            RatePath(0.5, np.array([0.1, -0.01]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            RatePath(1.0 / 252.0, [0.1, bad])

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt}"):
            RatePath(dt, [0.1, 0.2, 0.3])


class TestDemand:
    def test_single_term(self, sim_demand):
        assert DemandParams(0.0, 1000.0).intensity(1.0, 200.0) == 5.0

    def test_reference_point(self, sim_demand):
        assert sim_demand.intensity(0.09, 200.0) == pytest.approx(10.5556, abs=1e-4)

    def test_decreasing_in_rate(self, sim_demand):
        assert sim_demand.intensity(0.06, 200.0) > sim_demand.intensity(0.12, 200.0)

    def test_rate_floored_at_rate_floor(self, sim_demand):
        floor = sim_demand.intensity(stochastic.RATE_FLOOR, 200.0)
        assert sim_demand.intensity(0.0, 200.0) == floor
        got = sim_demand.intensity(np.array([0.0, stochastic.RATE_FLOOR / 2]), 200.0)
        assert got.tolist() == [floor, floor]

    @pytest.mark.parametrize("r", [stochastic.RATE_FLOOR, 2e-4, 0.09, 0.3])
    def test_above_the_floor_is_the_plain_formula(self, sim_demand, r):
        assert sim_demand.intensity(r, 200.0) == sim_demand.k1 / r + sim_demand.k2 / 200.0
        got = sim_demand.intensity(np.array([r, r]), np.array([150.0, 200.0]))
        assert got.tolist() == [sim_demand.k1 / r + sim_demand.k2 / L for L in (150.0, 200.0)]

    @pytest.mark.parametrize("k1, k2, field", [(math.nan, 1000.0, "k1"),
                                               (0.5, math.inf, "k2"),
                                               (-math.inf, 1000.0, "k1")])
    def test_params_reject_non_finite(self, k1, k2, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DemandParams(k1, k2)


class TestSimpsonNodes:
    def test_constant(self):
        assert simpson_integral(lambda s: 5.0 * np.ones_like(s), 2.0) == \
            pytest.approx(10.0, rel=1e-13)

    def test_linear_is_exact(self):
        assert simpson_integral(lambda s: s, 3.0) == pytest.approx(4.5, rel=1e-13)

    def test_refinement_oracle_on_demand_curve(self, sim_cir, sim_demand):
        p = CirParams(sim_cir.kappa, sim_cir.theta, 0.0, sim_cir.r0)
        path = simulate_cir(p, 5.0, 1.0 / 252.0, seed=0)
        lam = lambda s: sim_demand.intensity(np.maximum(path.rate_at(s), 1e-4), 200.0)
        coarse = simpson_integral(lam, 5.0, 201)
        fine = simpson_integral(lam, 5.0, 401)
        assert abs(coarse - fine) / fine < 1e-8

    def test_zero_horizon(self):
        assert simpson_integral(lambda s: s, 0.0) == 0.0

    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError, match="odd node count"):
            simpson_nodes(0.0, 1.0, 200)


class TestNhpp:
    def test_zero_intensity_gives_no_arrivals(self):
        out = sample_nhpp(lambda t: np.zeros_like(t), 10.0, 1.0, seed=1)
        assert out.size == 0

    def test_constant_intensity_poisson_moments(self):
        rng = substream(99, "nhpp-moments")
        lam = lambda t: 5.0 * np.ones_like(t)
        counts = np.array([sample_nhpp(lam, 1.0, 5.0, rng).size
                           for _ in range(100_000)], dtype=float)
        n = counts.size
        mean_se = counts.std(ddof=1) / math.sqrt(n)
        three_sigma("nhpp mean", 5.0, counts.mean(), mean_se)
        s2 = counts.var(ddof=1)
        m4 = np.mean((counts - counts.mean()) ** 4)
        var_se = math.sqrt(max(m4 - s2 ** 2, 0.0) / n)
        three_sigma("nhpp variance", 5.0, s2, var_se)

    def test_sorted_within_horizon(self):
        lam = lambda t: 3.0 + np.sin(t) ** 2
        out = sample_nhpp(lam, 8.0, 4.0, seed=5)
        assert np.all(np.diff(out) > 0)
        assert out.min() >= 0.0 and out.max() <= 8.0

    def test_time_rescaling_oracle(self, sim_cir, sim_demand):
        # mean count equals the integrated intensity
        p = CirParams(sim_cir.kappa, sim_cir.theta, 0.0, sim_cir.r0)
        path = simulate_cir(p, 5.0, 1.0 / 252.0, seed=0)
        lam = lambda s: sim_demand.intensity(np.maximum(path.rate_at(s), 1e-4), 200.0)
        target = simpson_integral(lam, 5.0)
        rng = substream(17, "nhpp-rescale")
        counts = np.array([sample_nhpp(lam, 5.0, 12.0, rng).size
                           for _ in range(20_000)], dtype=float)
        three_sigma("nhpp rescaled mean", target, counts.mean(),
                    counts.std(ddof=1) / math.sqrt(counts.size))

    def test_bound_violation_aborts(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            sample_nhpp(lambda t: 6.0 * np.ones_like(t), 10.0, 5.0, seed=2)

    def test_interarrival_exponentiality_flagged(self):
        # soft check: KS against the exponential law at alpha=0.01; a low
        # p-value is reported, only a catastrophic one fails the test
        rng = substream(23, "nhpp-ks")
        lam = lambda t: 3.0 * np.ones_like(t)
        arrivals = sample_nhpp(lam, 4000.0, 3.0, rng)
        gaps = np.diff(arrivals)[:10_000]
        stat, pvalue = scipy.stats.kstest(gaps, "expon", args=(0.0, 1.0 / 3.0))
        if pvalue < 0.01:
            print(f"FLAG: inter-arrival KS p={pvalue:.4g} (stat={stat:.4g})")
        assert pvalue > 1e-6

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            sample_nhpp(lambda t: t, 1.0, 0.0, seed=0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_rejects_bad_horizon(self, horizon):
        # NaN and inf used to fail inside numpy's Poisson draw
        with pytest.raises(ValueError, match="horizon"):
            sample_nhpp(lambda t: np.ones_like(t), horizon, 1.0, seed=0)


class TestSamplers:
    def test_uniform_moment(self):
        vals = UniformOffers(100.0, 200.0).sample(np.random.default_rng(31), 1_000_000)
        three_sigma("uniform mean", 150.0, vals.mean(),
                    vals.std(ddof=1) / math.sqrt(vals.size))

    def test_exponential_moment(self):
        vals = ExponentialWithdrawals(5.0).sample(np.random.default_rng(32), 1_000_000)
        three_sigma("withdrawal mean", 0.2, vals.mean(),
                    vals.std(ddof=1) / math.sqrt(vals.size))

    def test_instant_withdrawal_limit(self):
        vals = ExponentialWithdrawals(1e9).sample(np.random.default_rng(33), 10_001)
        assert np.median(vals) < 1e-6

    def test_substreams_are_independent_and_stable(self):
        a = substream(7, "alpha", 0).uniform(size=100_000)
        b = substream(7, "beta", 0).uniform(size=100_000)
        a2 = substream(7, "alpha", 0).uniform(size=100_000)
        np.testing.assert_array_equal(a, a2)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    @pytest.mark.parametrize("seed", [True, 1.0, None])
    def test_samplers_reject_a_seed_that_is_not_an_int(self, seed):
        # True would alias seed 1 and None would draw fresh entropy
        p = CirParams(0.25, 0.1, 0.08, 0.09)
        with pytest.raises(TypeError, match="seed must be an int"):
            simulate_cir(p, 1.0, seed=seed)
        with pytest.raises(TypeError, match="seed must be an int"):
            sample_nhpp(lambda t: np.ones_like(t), 1.0, 1.0, seed=seed)

    def test_samplers_take_numpy_ints_and_generators(self):
        p = CirParams(0.25, 0.1, 0.08, 0.09)
        want = simulate_cir(p, 1.0, seed=1).values.tobytes()
        assert simulate_cir(p, 1.0, seed=np.int64(1)).values.tobytes() == want
        assert simulate_cir(p, 1.0, seed=np.random.default_rng(1)).values.tobytes() == want


def draws(rng):
    # three float32 draws go last and leave half a 64-bit word buffered
    # in the bit generator
    return (rng.poisson(3.0, 3), rng.uniform(size=3), rng.standard_normal(3),
            rng.exponential(size=2), rng.integers(0, 2**40, 2),
            rng.random(3, dtype=np.float32))


def same_draws(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(draws(a), draws(b)))


class TestSubstreamKeys:
    @pytest.mark.parametrize("seed, key", [
        (1.9, ()), (1.0, ()), (True, ()), (np.True_, ()), (np.float64(1.0), ()),
        (1, (True,)), (1, ("x", False)), (1, (np.True_,)), (1, (2.0,)),
    ])
    def test_float_or_bool_seed_or_key_raises_type_error(self, seed, key):
        # int(1.9) and True would otherwise share seed 1's stream
        with pytest.raises(TypeError):
            substream(seed, "x", *key)

    @pytest.mark.parametrize("seed, key", [(np.int64(7), ("x",)), (np.uint32(7), ("x",)),
                                           (7, ("x", np.int32(3))), (7, ("x", np.uint64(3)))])
    def test_numpy_integers_are_ints(self, seed, key):
        want = substream(int(seed), *(int(k) if not isinstance(k, str) else k for k in key))
        assert same_draws(substream(seed, *key), want)


SEEDS = st.integers(0, 2**64 - 1)
# str parts, one-word ints and ints of two or three 32-bit words; five
# parts make more than SeedSequence's pool of four words
PREFIXES = st.lists(st.one_of(st.text(max_size=6), st.integers(0, 2**32 - 1),
                              st.integers(2**32, 2**70)), max_size=5).map(tuple)


class TestSubstreamStreams:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(max_value=-1), prefix=PREFIXES)
    def test_negative_seed_raises_value_error(self, seed, prefix):
        with pytest.raises(ValueError):
            substream(seed, *prefix)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, prefix=PREFIXES, where=st.integers(0, 5),
           bad=st.integers(max_value=-1))
    def test_negative_key_part_raises_value_error(self, seed, prefix, where, bad):
        with pytest.raises(ValueError):
            substream(seed, *prefix[:where], bad, *prefix[where:])

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, prefix=PREFIXES)
    def test_same_key_reproduces_the_stream_bitwise(self, seed, prefix):
        assert same_draws(substream(seed, *prefix), substream(seed, *prefix))

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, prefix=PREFIXES, j=st.integers(0, 2**32 - 2))
    def test_consecutive_counters_give_distinct_streams(self, seed, prefix, j):
        a = substream(seed, *prefix, j).bit_generator.random_raw(4)
        b = substream(seed, *prefix, j + 1).bit_generator.random_raw(4)
        assert not np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, prefix=PREFIXES)
    def test_key_is_the_seed_sequence_entropy(self, seed, prefix):
        # str parts enter as the CRC-32 of their UTF-8 bytes, ints as
        # themselves, after the seed
        entropy = [seed] + [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else p
                            for p in prefix]
        want = np.random.default_rng(np.random.SeedSequence(entropy))
        assert same_draws(substream(seed, *prefix), want)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("key, alias", [(("a",), ("a", 0)), ((2**32,), (0, 1))])
    def test_known_key_aliases(self, seed, key, alias):
        # short entropy is zero padded and a wide int split into 32-bit
        # words, so these distinct keys share one stream
        got, want = substream(seed, *key), substream(seed, *alias)
        assert np.array_equal(got.bit_generator.random_raw(4),
                              want.bit_generator.random_raw(4))

    @pytest.mark.parametrize("key, words", [
        ((1, "rates"), [0x1749ab8d4edf3c0c, 0x77bc6ec97b6e70b2, 0x737ba0c17b1672]),
        ((2**64 - 1, "price", 7),
         [0x64620fb8172022d8, 0xaf39cfd928c1e118, 0xb6a9fa6e994569a7]),
        ((0, "offers", 3, 2**33),
         [0x7e4b469713533dea, 0x1bf23e84fde3296d, 0x46326024261eb5c9]),
    ])
    def test_known_raw_words(self, key, words):
        # the golden output files rest on these streams
        got = substream(*key).bit_generator.random_raw(3)
        assert [int(w) for w in got] == words
