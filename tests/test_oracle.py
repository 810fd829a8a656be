import math

import pytest

from homesale import oracle
from homesale.closed_form import MarketParams, thinned_payoff
from homesale.oracle import (McEstimate, ValidationReport, mc_auxiliary_payoff,
                             mc_listed_payoff, mc_path_payoff,
                             sigma0_table2_path, table2_context, validate_all)
from homesale.path_payoff import (ExponentialWithdrawals, PathContext,
                                  UniformOffers)
from homesale.stochastic import DemandParams, RatePath


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

    def test_growing_n_keeps_earlier_replications(self, market):
        # the chunked substreams make estimates prefix-stable: the first
        # 50k replications of a 100k run reproduce the 50k run's sum
        small = mc_auxiliary_payoff(1.0, market, 131_072, seed=4)
        large = mc_auxiliary_payoff(1.0, market, 262_144, seed=4)
        assert abs(small.mean - large.mean) < 4.0 * small.stderr


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


class TestValidateAll:
    def quick_report(self, n=40_000, **kw):
        return validate_all(n=n, seed=123, t_values=(1.0,), lam_values=(5.0,),
                            path_t_values=(1.0,), **kw)

    def test_default_checks_pass(self):
        report = self.quick_report()
        assert report.passed, report.format_table()
        names = [r.name for r in report.rows]
        assert any(n.startswith("listed-gap") for n in names)
        assert any(n.startswith("path-changing-gap") for n in names)
        exact = [r for r in report.rows if r.name.startswith("path-changing-exact")]
        assert exact and all(r.kind == "check" and r.verdict == "pass" for r in exact)

    def test_gap_rows_are_informational(self):
        report = self.quick_report()
        for row in report.rows:
            if row.kind == "gap":
                assert row.verdict == "report"

    def test_low_replication_run_is_flagged_not_vacuously_green(self):
        report = self.quick_report(n=400, include_paths=False)
        assert any(r.low_power for r in report.rows if r.kind == "check")
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
                              lam_values=(5.0,), include_paths=False)
        assert not report.passed
        assert any(r.verdict == "FAIL" and r.name.startswith("aux") for r in report.rows)

    def test_csv_rows_match_schema(self):
        report = self.quick_report(n=2000, include_paths=False)
        for row in report.to_csv_rows():
            assert len(row) == 6
            name, analytic, mc_mean, mc_stderr, z, verdict = row
            assert isinstance(name, str) and isinstance(verdict, str)
