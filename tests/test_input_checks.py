"""Input checks whose messages no other test reads: one test per check,
named after the argument it rejects."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from homesale.cli import main
from homesale.closed_form import MarketParams, asymptotic_listed_payoff
from homesale.market_sim import EvolutionConfig, run_evolution
from homesale.oracle import McEstimate, mc_auxiliary_payoff, sigma0_table2_path, table2_context
from homesale.owt import SweepAxis
from homesale.path_payoff import conditional_payoff, expected_payoff
from homesale.quadrature import simpson_nodes
from homesale.stochastic import CirParams, DemandParams, RatePath

ROOT = Path(__file__).resolve().parents[1]


def _run_error(capsys, argv):
    """Exit code and stderr of one CLI run."""
    rc = main(argv)
    return rc, capsys.readouterr().err


class TestCli:
    def test_config_path_that_cannot_be_read(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        rc, err = _run_error(capsys, ["owt", "--config", str(missing), "--out", str(tmp_path)])
        assert rc == 2
        assert f"cannot read config {missing}" in err

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("# scenario\nsigma 0.1\n")
        rc, err = _run_error(capsys, ["owt", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"{cfg}:2: expected key = value, got 'sigma 0.1'" in err

    def test_events_txt_that_cannot_be_written(self, tmp_path, capsys):
        (tmp_path / "events.txt").mkdir()
        rc, err = _run_error(capsys, ["evolve", "--out", str(tmp_path), "--horizon", "1"])
        assert rc == 2
        assert f"cannot write {tmp_path / 'events.txt'}" in err

    def test_times_entry_that_is_not_a_number(self, tmp_path, capsys):
        rc, err = _run_error(capsys, ["expected-price", "--out", str(tmp_path),
                                      "--times", "2,soon"])
        assert rc == 2
        assert "bad --times list '2,soon'" in err
        assert not (tmp_path / "expected_price.csv").exists()

    def test_module_entry_point_returns_main_status(self, tmp_path):
        # `python -m homesale.cli` runs main() and exits with its status
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        missing = tmp_path / "absent.cfg"
        out = subprocess.run([sys.executable, "-m", "homesale.cli", "owt", "--config",
                              str(missing), "--out", str(tmp_path)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 2
        assert f"cannot read config {missing}" in out.stderr


def test_asymptotic_listed_payoff_with_lam_y_plus_r_zero():
    # the list at p_max leaves no offer above it (y = 0), and r = 0
    m = MarketParams(lam=5.0, mu=5.0, r=0.0, p_min=100.0, p_max=200.0)
    assert asymptotic_listed_payoff(m, 200.0) == 0.0


def test_run_evolution_negative_horizon():
    cfg = EvolutionConfig(cir=CirParams(0.25, 0.1, 0.08, 0.09), demand=DemandParams(0.5, 1000.0))
    with pytest.raises(ValueError, match="horizon must be non-negative"):
        run_evolution(cfg, -1.0, 0)


class TestOracle:
    def test_z_against_with_zero_stderr(self):
        est = McEstimate(mean=5.0, stderr=0.0, n=10)
        assert est.z_against(5.0) == 0.0
        assert est.z_against(6.0) == np.inf

    def test_n_below_two(self):
        m = MarketParams(lam=5.0, mu=5.0, r=0.1, p_min=100.0, p_max=200.0)
        with pytest.raises(ValueError, match="n must be >= 2"):
            mc_auxiliary_payoff(1.0, m, 1, 0)


class TestSweepAxis:
    def test_steps_below_one(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            SweepAxis("lam", 1.0, 10.0, 0)

    def test_stop_not_above_start(self):
        with pytest.raises(ValueError, match="grid must be strictly increasing"):
            SweepAxis("lam", 10.0, 1.0, 5)


class TestPathPayoff:
    CTX = table2_context(sigma0_table2_path(1.0))

    def test_conditional_payoff_mode(self):
        with pytest.raises(ValueError, match="mode must be one of .*, got 'bogus'"):
            conditional_payoff(self.CTX, 0.5, "bogus")

    def test_expected_payoff_mode(self):
        with pytest.raises(ValueError, match="mode must be one of .*, got 'bogus'"):
            expected_payoff(table2_context, CirParams(0.25, 0.1, 0.08, 0.09), [0.5], 2, 0,
                            mode="bogus")

    def test_expected_payoff_times_not_1d(self):
        with pytest.raises(ValueError, match="times must be a 1-D grid of horizons"):
            expected_payoff(table2_context, CirParams(0.25, 0.1, 0.08, 0.09), [[0.5]], 2, 0)


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)])
def test_simpson_nodes_interval(a, b):
    with pytest.raises(ValueError, match="bad interval"):
        simpson_nodes(a, b, 5)


def test_rate_path_values_empty():
    with pytest.raises(ValueError, match="values must be a non-empty 1-D array"):
        RatePath(1.0 / 252.0, [])


def test_demand_k1_and_k2_both_zero():
    with pytest.raises(ValueError, match="k1 and k2 cannot both be zero"):
        DemandParams(0.0, 0.0)
