import math

import numpy as np
import pytest

from conftest import GAMMA_DEFAULT, L_DEFAULT, R_DEFAULT
from homesale.closed_form import MarketParams, expected_utility, listed_payoff
from homesale.owt import (SweepAxis, SweepSpec, optimal_waiting_time, sweep_owt)


def table1_objective(market):
    return lambda T: expected_utility(T, market, R_DEFAULT, L_DEFAULT, GAMMA_DEFAULT)


class TestOptimalWaitingTime:
    def test_matches_dense_grid_argmax(self, market):
        objective = table1_objective(market)
        res = optimal_waiting_time(objective, t_max=20.0, tol=1e-4)
        dense = np.linspace(20.0 / 100_000, 20.0, 100_000)
        vals = [objective(t) for t in dense]
        t_dense = dense[int(np.argmax(vals))]
        assert abs(res.t_star - t_dense) <= 1e-4 + 20.0 / 100_000
        assert not res.boundary

    def test_argmax_invariant_under_positive_scaling(self, market):
        objective = table1_objective(market)
        base = optimal_waiting_time(objective, t_max=20.0, tol=1e-4)
        scaled = optimal_waiting_time(lambda T: 7.3 * objective(T), t_max=20.0, tol=1e-4)
        assert scaled.t_star == base.t_star

    def test_strictly_increasing_objective_flags_boundary(self, market):
        res = optimal_waiting_time(
            lambda T: listed_payoff(T, market, R_DEFAULT, L_DEFAULT), t_max=20.0)
        assert res.boundary
        assert res.t_star == 20.0

    def test_non_finite_objective_aborts(self):
        with pytest.raises(ValueError, match="non-finite"):
            optimal_waiting_time(lambda T: math.nan, t_max=5.0)

    def test_reproducible_bit_for_bit(self, market):
        objective = table1_objective(market)
        a = optimal_waiting_time(objective)
        b = optimal_waiting_time(objective)
        assert a == b

    def test_result_beats_grid_neighbours(self, market):
        objective = table1_objective(market)
        res = optimal_waiting_time(objective, t_max=20.0, tol=1e-4)
        step = 20.0 / 256
        left = objective(max(res.t_star - step, 1e-9))
        right = objective(res.t_star + step)
        assert res.utility_at_t_star >= left
        assert res.utility_at_t_star >= right

    def test_unimodality_audit_reports_clean_curve(self, market):
        res = optimal_waiting_time(table1_objective(market))
        assert res.diff_sign_changes <= 1

    def test_unimodality_audit_flags_bimodal_curve(self):
        bimodal = lambda T: math.sin(T) + 0.3 * math.sin(3.1 * T)
        res = optimal_waiting_time(bimodal, t_max=20.0)
        assert res.diff_sign_changes > 1

    def test_rejects_bad_controls(self, market):
        with pytest.raises(ValueError):
            optimal_waiting_time(table1_objective(market), t_max=0.0)
        with pytest.raises(ValueError):
            optimal_waiting_time(table1_objective(market), tol=0.0)


class TestSweep:
    def make_spec(self, market, ax, ay, **kw):
        return SweepSpec(ax, ay, market, R_DEFAULT, L_DEFAULT, GAMMA_DEFAULT, **kw)

    def test_degenerate_single_cell_matches_direct_call(self, market):
        spec = self.make_spec(market, SweepAxis("lam", 5.0, 5.0, 1),
                              SweepAxis("r", 0.1, 0.1, 1))
        surf = sweep_owt(spec)
        direct = optimal_waiting_time(
            lambda T: expected_utility(T, market, R_DEFAULT, L_DEFAULT,
                                       GAMMA_DEFAULT, exact=True))
        assert surf.t_star.shape == (1, 1)
        assert surf.t_star[0, 0] == direct.t_star

    def test_waiting_time_falls_as_rates_rise(self, market):
        spec = self.make_spec(market, SweepAxis("lam", 1.0, 10.0, 6),
                              SweepAxis("r", 0.02, 0.3, 6))
        surf = sweep_owt(spec)
        assert np.all(np.isfinite(surf.t_star))
        # columns: fixed lam, r increasing downward
        for j in range(surf.t_star.shape[1]):
            col = surf.t_star[:, j]
            assert np.all(np.diff(col) <= 1e-3), f"lam={surf.x_values[j]}: {col}"

    def test_waiting_time_grows_with_reservation_at_low_rate(self, market):
        spec = self.make_spec(market, SweepAxis("reservation", 110.0, 170.0, 7),
                              SweepAxis("r", 0.02, 0.05, 2))
        surf = sweep_owt(spec)
        for i in range(surf.t_star.shape[0]):
            row = surf.t_star[i, :]
            assert np.all(np.diff(row) >= -1e-3), f"r={surf.y_values[i]}: {row}"

    def test_invalid_cells_become_nan(self, market):
        # reservation above the list price is not a valid policy
        spec = self.make_spec(market, SweepAxis("reservation", 150.0, 190.0, 5),
                              SweepAxis("r", 0.05, 0.1, 2))
        surf = sweep_owt(spec)
        assert np.isnan(surf.t_star[:, -1]).all()
        assert np.isfinite(surf.t_star[:, 0]).all()

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            SweepAxis("volatility", 0.0, 1.0, 5)
