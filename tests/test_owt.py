import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GAMMA_DEFAULT, L_DEFAULT, R_DEFAULT
from homesale.closed_form import (_EXACT, _FLOAT, MarketParams, _listed, expected_utility,
                                  listed_payoff)
from homesale.owt import (_AXIS_NAMES, _BLOCK_CELLS, SweepAxis, SweepSpec, _cell_params,
                          _golden_max, _grid, _scan, optimal_waiting_time, sweep_owt)


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

    def test_non_finite_value_during_refinement_aborts(self):
        # finite on every grid node (the nearest are 0.9375 and 1.015625),
        # NaN between them: the scan passes and the refinement meets it,
        # where it used to return utility_at_t_star = nan
        def objective(T):
            v = np.where(np.abs(T - 1.0) < 0.01, math.nan, -(T - 1.0) ** 2)
            return v if isinstance(T, np.ndarray) else float(v)

        with pytest.raises(ValueError, match="non-finite value nan at T=") as err:
            optimal_waiting_time(objective, t_max=20.0)
        assert abs(float(str(err.value).rsplit("T=", 1)[1]) - 1.0) < 0.01

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
        bimodal = lambda T: np.sin(T) + 0.3 * np.sin(3.1 * T)
        res = optimal_waiting_time(bimodal, t_max=20.0)
        assert res.diff_sign_changes > 1

    def test_rejects_bad_controls(self, market):
        with pytest.raises(ValueError):
            optimal_waiting_time(table1_objective(market), t_max=0.0)
        with pytest.raises(ValueError):
            optimal_waiting_time(table1_objective(market), tol=0.0)

    @pytest.mark.parametrize("name", ["t_max", "tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_controls(self, market, name, value):
        # tol = inf used to skip the refinement and return a bare grid node
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            optimal_waiting_time(table1_objective(market), **{name: value})

    def test_objective_sees_the_grid_once_then_floats(self, market):
        seen = []

        def objective(T):
            seen.append(T)
            return table1_objective(market)(T)

        res = optimal_waiting_time(objective, t_max=20.0, tol=1e-4)
        assert isinstance(seen[0], np.ndarray)
        assert seen[0].tolist() == [20.0 / 256 * i for i in range(1, 257)]
        assert all(type(T) is float for T in seen[1:])
        assert res.evaluations == 256 + len(seen) - 1


def float_and_array_refinements(objective, lo, hi, tol):
    """_golden_max per cell on floats, and on all cells in lockstep on arrays."""
    floats = [_golden_max(lambda T, i=i: objective(T, i, _FLOAT), a, b, tol)[:2]
              for i, (a, b) in enumerate(zip(lo, hi))]
    t, ft, _ = _golden_max(lambda T: objective(T, slice(None), _EXACT),
                           np.array(lo), np.array(hi), tol, _EXACT)
    return floats, list(zip(t.tolist(), ft.tolist()))


@st.composite
def refinements(draw):
    """Cells of random markets with brackets of unequal width, one tol."""
    intensity = st.one_of(st.just(0.0), st.floats(1e-6, 50.0))
    cells, lo, hi = [], [], []
    for _ in range(draw(st.integers(1, 8))):
        p_min = draw(st.floats(1.0, 500.0))
        p_max = p_min + draw(st.floats(1.0, 500.0))
        R = p_min + draw(st.floats(0.0, 1.0)) * (p_max - p_min)
        L = min(R + draw(st.floats(0.0, 1.0)) * (p_max - R), p_max)
        lam, mu, r, gamma = (draw(intensity), draw(intensity), draw(st.floats(0.0, 0.5)),
                             draw(st.floats(0.0, 0.5)))
        cells.append((lam, mu, r, p_min, p_max, R, L, gamma))
        lo.append(draw(st.floats(0.0, 20.0)))
        hi.append(lo[-1] + draw(st.floats(1e-6, 2.0)))
    tol = 10.0 ** draw(st.floats(-9.0, -1.0))
    return np.array(cells).T, lo, hi, tol, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(refinements())
def test_lockstep_refinement_equals_the_float_path(case):
    # the cells stop at different iterations, and a flat objective ties
    # every comparison, which resolves to the earliest maximizer
    cols, lo, hi, tol, exact, flat = case

    def objective(T, i, ops):
        return 0.0 * T + 3.0 if flat else _listed(T, *cols[:, i], exact, ops)

    floats, arrays = float_and_array_refinements(objective, lo, hi, tol)
    assert [(t.hex(), f.hex()) for t, f in floats] == [(t.hex(), f.hex()) for t, f in arrays]


def test_lockstep_checks_only_the_cells_still_refining():
    # the first cell's bracket is below tol from the start; its right
    # interior point (about 10 + 0.618e-6), which a frozen cell keeps
    # evaluating, is NaN, and its midpoint is not; the second cell refines
    # on finite values
    peak = lambda T, i, ops: ops.where(T > 10.0 + 0.55e-6, math.nan, -(T - 1.0) ** 2)
    floats, arrays = float_and_array_refinements(peak, [10.0, 0.5], [10.0 + 1e-6, 1.5], 1e-4)
    assert [(t.hex(), f.hex()) for t, f in floats] == [(t.hex(), f.hex()) for t, f in arrays]
    # the same NaN in the second cell, which is still refining, raises
    for ops, lo, hi in ((_FLOAT, 9.5, 10.5), (_EXACT, np.array([10.0, 9.5]),
                                              np.array([10.0 + 1e-6, 10.5]))):
        with pytest.raises(ValueError, match="non-finite value nan at T="):
            _golden_max(lambda T: peak(T, None, ops), lo, hi, 1e-4, ops)


def ref_read_scan(values, grid):
    """The coarse scan read as a loop, one objective at a time: boundary
    flag, sign flips of successive differences with flat steps skipped,
    and the bracket around the first maximum."""
    flips, prev = 0, 0
    for a, b in zip(values, values[1:]):
        s = 1 if b > a else (-1 if b < a else 0)
        if s != 0:
            if prev != 0 and s != prev:
                flips += 1
            prev = s
    idx = max(range(len(values)), key=values.__getitem__)
    last = len(values) - 1
    return (idx == last, flips, grid[idx - 1] if idx >= 1 else 0.0,
            grid[min(idx + 1, last)])


def test_scan_reads_every_row_as_the_loop_does():
    # steps in {-1, 0, 1} make flat starts, flat stretches and tied maxima
    # common; the first rows are flat, rising and falling throughout
    rng = np.random.default_rng(3)
    vals = np.cumsum(rng.integers(-1, 2, size=(300, 256)), axis=1).astype(float)
    vals[0] = 0.0
    vals[1] = np.arange(256.0)
    vals[2] = -np.arange(256.0)
    grid = _grid(20.0, 1e-4)
    got = zip(*(a.tolist() for a in _scan(vals, grid)))
    want = [ref_read_scan(row, grid.tolist()) for row in vals.tolist()]
    assert list(got) == want


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

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_cells_become_nan(self, market, gamma):
        # a cell is checked as expected_utility checks its arguments: an
        # infinite gamma used to give t_star = 3.54e-05 in every cell, and a
        # NaN one stopped the sweep on a non-finite objective value
        with pytest.raises(ValueError, match="gamma must be finite"):
            expected_utility(1.0, market, R_DEFAULT, L_DEFAULT, gamma)
        surf = sweep_owt(SweepSpec(SweepAxis("lam", 1.0, 10.0, 3), SweepAxis("r", 0.05, 0.1, 2),
                                   market, R_DEFAULT, L_DEFAULT, gamma))
        assert np.isnan(surf.t_star).all() and not surf.boundary.any()

    @pytest.mark.parametrize("name", _AXIS_NAMES)
    def test_rejects_same_parameter_on_both_axes(self, market, name):
        # _cell_params sets x then y, so y would silently overwrite x
        ax = SweepAxis(name, 1.0, 2.0, 2)
        with pytest.raises(ValueError, match=f"both sweep axes are {name!r}"):
            self.make_spec(market, ax, SweepAxis(name, 1.0, 2.0, 2))

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            SweepAxis("volatility", 0.0, 1.0, 5)

    @pytest.mark.parametrize("start, stop, end", [(1.0, math.inf, "stop"),
                                                  (-math.inf, 1.0, "start"),
                                                  (math.nan, 1.0, "start"),
                                                  (1.0, math.nan, "stop")])
    def test_rejects_non_finite_axis_bounds(self, start, stop, end):
        with pytest.raises(ValueError, match=f"lam axis {end} must be finite"):
            SweepAxis("lam", start, stop, 2)

    @pytest.mark.parametrize("name", ["t_max", "tol"])
    def test_rejects_non_finite_controls(self, market, name):
        spec = self.make_spec(market, SweepAxis("lam", 1.0, 2.0, 2),
                              SweepAxis("r", 0.1, 0.2, 2), **{name: math.inf})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sweep_owt(spec)

    @pytest.mark.parametrize("axes, r, tol", [
        # 7 x 5 = 35 cells: two full scan chunks and a partial one; gamma = 0
        # puts the maximizer on the horizon, and reservations above the
        # list price of 180 are NaN cells
        ((SweepAxis("gamma", 0.0, 0.3, 7), SweepAxis("reservation", 110.0, 190.0, 5)), 0.1, 1e-4),
        ((SweepAxis("gamma", 0.0, 0.3, 7), SweepAxis("reservation", 110.0, 190.0, 5)), 0.0, 1e-4),
        ((SweepAxis("lam", 1.0, 12.0, 9), SweepAxis("mu", 0.0, 10.0, 4)), 0.1, 1e-4),
        ((SweepAxis("lam", 1.0, 12.0, 9), SweepAxis("mu", 0.0, 10.0, 4)), 0.1, 1e-9),
        # 384 valid cells, more than one refinement block: list prices below
        # the reservation of 140 and above p_max are NaN rows before and
        # after the block edge, and gamma = 0 is a boundary cell in the rows
        # of list prices 172 to 196, on both sides of it
        ((SweepAxis("gamma", 0.0, 0.3, 24), SweepAxis("list_price", 100.0, 220.0, 31)),
         0.1, 1e-4),
    ])
    def test_batched_scan_equals_one_solve_per_cell(self, market, axes, r, tol):
        m = MarketParams(market.lam, market.mu, r, market.p_min, market.p_max)
        spec = self.make_spec(m, *axes, tol=tol)
        surf = sweep_owt(spec)
        for i, yv in enumerate(surf.y_values):
            for j, xv in enumerate(surf.x_values):
                cell = _cell_params(spec, xv, yv)
                if cell is None:
                    assert math.isnan(surf.t_star[i, j]) and not surf.boundary[i, j]
                    continue
                cm, (R, L, gamma) = MarketParams(*cell[:5]), cell[5:]
                res = optimal_waiting_time(
                    lambda T: expected_utility(T, cm, R, L, gamma, exact=True),
                    t_max=spec.t_max, tol=spec.tol)
                assert float(surf.t_star[i, j]).hex() == res.t_star.hex(), (xv, yv)
                assert surf.boundary[i, j] == res.boundary, (xv, yv)
        if spec.axis_y.name == "reservation":
            assert np.isnan(surf.t_star).any() and surf.boundary.any()
        valid = np.flatnonzero(~np.isnan(surf.t_star))
        if valid.size > _BLOCK_CELLS:
            edge = valid[_BLOCK_CELLS]
            for part in (slice(None, edge), slice(edge, None)):
                assert np.isnan(surf.t_star.ravel()[part]).any()
                assert surf.boundary.ravel()[part].any()

    def test_memory_does_not_grow_with_the_grid(self, market):
        # the scan holds at most 16 cells x 256 horizons per temporary and
        # the refinement 256 cells per array; with all 3,600 cells at once
        # each scan temporary alone would be 7.4 MB
        peaks = {}
        for n in (60, 90):
            spec = self.make_spec(market, SweepAxis("lam", 1.0, 12.0, n),
                                  SweepAxis("r", 0.02, 0.3, n))
            tracemalloc.start()
            try:
                surf = sweep_owt(spec)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.isfinite(surf.t_star).all()
        assert peaks[60] < 1_000_000
        assert peaks[90] < 1.5 * peaks[60], peaks
