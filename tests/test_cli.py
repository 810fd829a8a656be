import math
import pathlib

import numpy as np
import pytest

from homesale.cli import ScenarioConfig, _fmt, config_hash, load_config, main


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# homesale config_hash=")
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return lines[0], header, rows


class TestConfig:
    def test_defaults_match_reference_tables(self):
        cfg = ScenarioConfig()
        assert cfg.arrival_intensity == 5.0
        assert cfg.withdrawal_intensity == 5.0
        assert cfg.interest_rate == 0.1
        assert cfg.reservation_price == 140.0
        assert cfg.list_price == 180.0
        assert cfg.waiting_averseness == 0.1
        assert (cfg.p_min, cfg.p_max) == (100.0, 200.0)
        assert cfg.sim_withdrawal_intensity == 10.0
        assert (cfg.occupation_min, cfg.occupation_max) == (4.0, 6.0)
        assert cfg.crisis_mean == 10.0
        assert cfg.initial_reservation_price == 140.0
        assert cfg.initial_list_price == 200.0
        assert cfg.sim_waiting_averseness == 0.8
        assert cfg.interest_rate_threshold == 0.06
        assert (cfg.k1, cfg.k2) == (0.5, 1000.0)
        assert (cfg.theta, cfg.sigma, cfg.kappa, cfg.r0) == (0.1, 0.08, 0.25, 0.09)

    def test_file_overrides_and_comments(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("# scenario\nwaiting_averseness = 0.0\nseed = 7\n")
        cfg = load_config(str(f))
        assert cfg.waiting_averseness == 0.0
        assert cfg.seed == 7

    def test_unknown_key_is_an_error(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("arival_intensity = 5\n")
        rc = main(["owt", "--config", str(f), "--out", str(tmp_path)])
        assert rc == 2

    def test_hash_tracks_content(self):
        a = ScenarioConfig()
        b = ScenarioConfig(seed=99)
        assert config_hash(a) != config_hash(b)

    def test_inconsistent_policy_is_config_error(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("reservation_price = 190\nlist_price = 150\n")
        rc = main(["owt", "--config", str(f), "--out", str(tmp_path)])
        assert rc == 2

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a file where a directory is needed
        rc = main(["owt", "--out", str(blocker / "sub"), "--t-steps", "3"])
        assert rc == 2


class TestOwtCommand:
    def test_no_list_curve_rises_then_falls(self, tmp_path):
        rc = main(["owt", "--mode", "no-list", "--out", str(tmp_path),
                   "--t-steps", "120"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "owt_curve.csv")
        assert header == ["T", "payoff", "payoff_exact", "utility"]
        payoff = np.array([float(r[1]) for r in rows])
        peak = int(np.argmax(payoff))
        assert 0 < peak < payoff.size - 1
        assert np.all(np.diff(payoff[peak:]) <= 1e-9)
        assert payoff[0] < payoff[peak]

    def test_no_list_curve_with_many_lasting_offers(self, tmp_path):
        # 36 thinned offers a year that are never withdrawn put
        # x = lam*T*(1 - f) up to 720 on the default 20-year grid
        f = tmp_path / "s.cfg"
        f.write_text("arrival_intensity = 60\nwithdrawal_intensity = 0\n")
        rc = main(["owt", "--mode", "no-list", "--config", str(f),
                   "--out", str(tmp_path), "--t-steps", "50"])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "owt_curve.csv")
        payoff = np.array([float(r[1]) for r in rows])
        assert np.all(np.isfinite(payoff)) and np.all(payoff <= 200.0)

    def test_listed_curve_without_impatience_is_monotone(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("waiting_averseness = 0\n")
        rc = main(["owt", "--config", str(f), "--out", str(tmp_path),
                   "--t-steps", "100"])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "owt_curve.csv")
        utility = np.array([float(r[3]) for r in rows])
        assert np.all(np.diff(utility) >= -1e-9)

    def test_empty_grid_writes_header_only(self, tmp_path):
        rc = main(["owt", "--out", str(tmp_path), "--t-steps", "0"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "owt_curve.csv")
        assert header == ["T", "payoff", "payoff_exact", "utility"]
        assert rows == []

    @pytest.mark.parametrize("mode", ["listed", "no-list"])
    def test_golden_owt_bytes(self, tmp_path, mode):
        # frozen from owt --mode <mode> --t-steps 25 --seed 1 --workers 1;
        # any change to these bytes must be explained
        name = f"golden_owt_{mode.replace('-', '_')}_seed1.csv"
        golden = pathlib.Path(__file__).parent / "data" / name
        rc = main(["owt", "--out", str(tmp_path), "--mode", mode, "--t-steps", "25",
                   "--seed", "1", "--workers", "1"])
        assert rc == 0
        assert (tmp_path / "owt_curve.csv").read_bytes() == golden.read_bytes()

    def test_summary_line_embedded(self, tmp_path):
        rc = main(["owt", "--out", str(tmp_path), "--t-steps", "10"])
        assert rc == 0
        lines = (tmp_path / "owt_curve.csv").read_text().splitlines()
        assert lines[1].startswith("# t_star=")


class TestSweepCommand:
    def test_small_grid_row_count(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path),
                   "--x", "lam:2:8:2", "--y", "r:0.05:0.2:2"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["lam", "r", "t_star"]
        assert len(rows) == 4

    def test_identical_invocations_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            rc = main(["sweep", "--out", str(d),
                       "--x", "lam:1:9:3", "--y", "r:0.05:0.25:3"])
            assert rc == 0
        assert (a_dir / "sweep.csv").read_bytes() == (b_dir / "sweep.csv").read_bytes()

    def test_rate_monotonicity_on_output(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path),
                   "--x", "lam:1:10:4", "--y", "r:0.02:0.3:5"])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "sweep.csv")
        surf = {}
        for x, y, t in rows:
            surf.setdefault(float(x), []).append((float(y), float(t)))
        for lam, col in surf.items():
            col.sort()
            t_vals = [t for _, t in col]
            assert all(b <= a + 1e-3 for a, b in zip(t_vals, t_vals[1:])), (lam, t_vals)

    @pytest.mark.parametrize("golden_name, axes", [
        ("golden_sweep_seed1.csv", ["--x", "lam:1:12:6", "--y", "r:0.02:0.3:5"]),
        # a reservation of 190 sits above the list price of 180, so those
        # cells are NaN; mu = 0 takes the series branch of the withdrawal
        # fraction
        ("golden_sweep_nan_seed1.csv", ["--x", "reservation:110:190:5",
                                        "--y", "mu:0:10:3"]),
    ])
    def test_golden_sweep_bytes(self, tmp_path, golden_name, axes):
        # frozen from sweep <axes> --seed 1 --workers 1; any change to
        # these bytes must be explained
        golden = pathlib.Path(__file__).parent / "data" / golden_name
        rc = main(["sweep", "--out", str(tmp_path), *axes, "--seed", "1", "--workers", "1"])
        assert rc == 0
        assert (tmp_path / "sweep.csv").read_bytes() == golden.read_bytes()

    def test_bad_axis_spec_is_usage_error(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path), "--x", "lam:1:10", "--y", "r:0:1:2"])
        assert rc == 2


class TestEvolveCommand:
    def test_zero_horizon_empty_log(self, tmp_path):
        rc = main(["evolve", "--out", str(tmp_path), "--horizon", "0"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "evolution.csv")
        assert rows == []
        stream_lines = (tmp_path / "events.txt").read_text().splitlines()
        assert len(stream_lines) == 1 and stream_lines[0].startswith("#")

    def test_golden_reproducibility(self, tmp_path):
        for d in ("a", "b"):
            rc = main(["evolve", "--out", str(tmp_path / d), "--horizon", "50"])
            assert rc == 0
        assert (tmp_path / "a" / "events.txt").read_bytes() == \
            (tmp_path / "b" / "events.txt").read_bytes()

    def test_rate_path_serialized_alongside(self, tmp_path):
        rc = main(["evolve", "--out", str(tmp_path), "--horizon", "5"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "rates.csv")
        assert header == ["t", "r"]
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.09
        assert all(float(r[1]) >= 0.0 for r in rows)

    def test_list_above_offer_support_is_config_error(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("initial_list_price = 250\n")
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(f), "--out", str(out), "--horizon", "20"])
        assert rc == 2
        assert not out.exists()

    def test_zero_withdrawal_intensity_never_withdraws(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("sim_withdrawal_intensity = 0\n")
        rc = main(["evolve", "--config", str(f), "--out", str(tmp_path),
                   "--horizon", "20"])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "evolution.csv")
        kinds = [r[1] for r in rows]
        assert kinds.count("OfferReceived") > 0
        assert kinds.count("OfferWithdrawn") == 0

    @pytest.mark.parametrize("scenario, extra", [("default", ""),
                                                  ("sigma15", "sigma = 1.5\n")])
    def test_golden_evolve_bytes(self, tmp_path, scenario, extra):
        # sigma = 1.5 floors the rate at zero, so rates.csv holds written zeros
        f = tmp_path / "s.cfg"
        f.write_text("t_max = 1\n" + extra)
        rc = main(["evolve", "--config", str(f), "--out", str(tmp_path / "out"),
                   "--seed", "2", "--horizon", "5"])
        assert rc == 0
        data = pathlib.Path(__file__).parent / "data"
        for name in ("evolution.csv", "rates.csv", "events.txt"):
            golden = data / f"golden_evolve_{scenario}_seed2_{name}"
            assert (tmp_path / "out" / name).read_bytes() == golden.read_bytes(), name

    @pytest.mark.parametrize("line, field", [("sigma = nan", "sigma"),
                                             ("kappa = inf", "kappa"),
                                             ("k1 = nan", "k1")])
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, line, field):
        f = tmp_path / "s.cfg"
        f.write_text(line + "\n")
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(f), "--out", str(out), "--horizon", "5"])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, field", [
        (f"{key} = {value}", field)
        for key, field in [
            ("kappa", "kappa"), ("theta", "theta"), ("sigma", "sigma"), ("r0", "r0"),
            ("k1", "k1"), ("k2", "k2"), ("sim_withdrawal_intensity", "mu"),
            ("sim_waiting_averseness", "gamma"), ("zeta", "zeta"), ("p_min", "p_min"),
            ("p_max", "p_max"), ("initial_reservation_price", "initial_reservation"),
            ("initial_list_price", "initial_list"), ("occupation_min", "occupation_lo"),
            ("occupation_max", "occupation_hi"), ("crisis_mean", "crisis_mean"),
            ("interest_rate_threshold", "rate_threshold"), ("dt", "dt"),
            ("t_max", "t_max"), ("tol", "tol")]
        for value in ("nan", "inf")
    ] + [("occupation_min = -1", "occupation_lo"), ("occupation_min = 7", "occupation_lo")])
    def test_simulation_key_outside_its_domain_is_config_error(self, tmp_path, capsys,
                                                               line, field):
        f = tmp_path / "s.cfg"
        f.write_text(line + "\n")
        out = tmp_path / "out"
        rc = main(["evolve", "--config", str(f), "--out", str(out), "--horizon", "8",
                   "--seed", "2"])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_horizon_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["evolve", "--out", str(out), "--horizon", "inf"])
        assert rc == 2
        assert not out.exists()

    def test_crisis_dominant_config(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("crisis_mean = 0.5\n")
        rc = main(["evolve", "--config", str(f), "--out", str(tmp_path),
                   "--horizon", "40"])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "evolution.csv")
        causes = [r[1] for r in rows if r[1] in ("CrisisShock", "ProfitOpportunity")]
        assert causes
        assert all(c == "CrisisShock" for c in causes)


class TestExpectedPriceCommand:
    def test_one_query_one_row(self, tmp_path):
        rc = main(["expected-price", "--out", str(tmp_path), "--times", "2.0",
                   "--n-reps", "30"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "expected_price.csv")
        assert header == ["time", "t_star", "mean_price", "stderr",
                          "n_sales", "no_sale_fraction"]
        assert len(rows) == 1

    def test_single_rep_missing_stderr(self, tmp_path):
        rc = main(["expected-price", "--out", str(tmp_path), "--times", "1",
                   "--n-reps", "1"])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "expected_price.csv")
        assert rows[0][3] == ""  # stderr column empty

    def test_golden_expected_price_bytes(self, tmp_path):
        # frozen from expected-price --times 2,10 --n-reps 50 --seed 1
        # --workers 1; any change to these bytes must be explained
        golden = pathlib.Path(__file__).parent / "data" / "golden_expected_price_seed1.csv"
        rc = main(["expected-price", "--out", str(tmp_path), "--times", "2,10",
                   "--n-reps", "50", "--seed", "1", "--workers", "1"])
        assert rc == 0
        assert (tmp_path / "expected_price.csv").read_bytes() == golden.read_bytes()

    def test_list_above_offer_support_is_config_error(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("initial_list_price = 250\n")
        out = tmp_path / "out"
        rc = main(["expected-price", "--config", str(f), "--out", str(out),
                   "--times", "2", "--n-reps", "30"])
        assert rc == 2
        assert not out.exists()

    def test_infinite_posting_time_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["expected-price", "--out", str(out), "--times", "2,inf",
                   "--n-reps", "30"])
        assert rc == 2
        assert not out.exists()

    def test_zero_reps_is_usage_error(self, tmp_path):
        # an explicit 0 must reach the validator, not fall back to the default
        rc = main(["expected-price", "--out", str(tmp_path), "--times", "1",
                   "--n-reps", "0"])
        assert rc == 2
        assert not (tmp_path / "expected_price.csv").exists()


class TestPayoffPathCommand:
    def test_zero_vol_single_path_stderr_zero(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("sigma = 0\n")
        rc = main(["payoff-path", "--config", str(f), "--out", str(tmp_path),
                   "--mode", "none", "--t-steps", "3", "--n-paths", "1"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "payoff_path.csv")
        assert header == ["t", "payoff", "stderr"]
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_constant_equals_changing_with_zero_decay(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("sigma = 0\nzeta = 0\n")
        outs = {}
        for mode in ("constant", "changing"):
            d = tmp_path / mode
            rc = main(["payoff-path", "--config", str(f), "--out", str(d),
                       "--mode", mode, "--t-steps", "3", "--n-paths", "1"])
            assert rc == 0
            _, _, rows = read_csv(d / "payoff_path.csv")
            outs[mode] = [float(r[1]) for r in rows]
        assert outs["constant"] == pytest.approx(outs["changing"], rel=1e-10)

    def test_mc_mode_populates_stderr(self, tmp_path):
        rc = main(["payoff-path", "--out", str(tmp_path), "--mode", "none",
                   "--t-steps", "2", "--n-paths", "24"])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "payoff_path.csv")
        assert all(float(r[2]) > 0.0 for r in rows)

    def test_zero_paths_is_usage_error(self, tmp_path):
        rc = main(["payoff-path", "--out", str(tmp_path), "--mode", "none",
                   "--t-steps", "2", "--n-paths", "0"])
        assert rc == 2
        assert not (tmp_path / "payoff_path.csv").exists()

    def test_zero_paths_is_usage_error_on_empty_grid(self, tmp_path):
        rc = main(["payoff-path", "--out", str(tmp_path), "--t-steps", "0",
                   "--n-paths", "0"])
        assert rc == 2
        assert not (tmp_path / "payoff_path.csv").exists()

    @pytest.mark.parametrize("n_paths", ["1", "10"])
    def test_empty_grid_writes_header_only(self, tmp_path, n_paths):
        rc = main(["payoff-path", "--out", str(tmp_path), "--t-steps", "0",
                   "--n-paths", n_paths])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "payoff_path.csv")
        assert header == ["t", "payoff", "stderr"] and rows == []

    @pytest.mark.parametrize("n_paths", ["1", "4"])
    def test_list_above_offer_support_is_config_error(self, tmp_path, n_paths):
        f = tmp_path / "s.cfg"
        f.write_text("initial_list_price = 250\n")
        out = tmp_path / "out"
        rc = main(["payoff-path", "--config", str(f), "--out", str(out),
                   "--mode", "changing", "--t-steps", "3", "--n-paths", n_paths])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("golden_name,opts", [
        ("golden_payoff_path_seed1.csv",
         ["--mode", "changing", "--t-steps", "6", "--n-paths", "3"]),
        # one path: path 0 of the Monte Carlo run, stderr 0
        ("golden_payoff_path_single_seed1.csv",
         ["--mode", "changing", "--t-steps", "7", "--n-paths", "1", "--t-max", "3.3"]),
        ("golden_payoff_path_constant_seed1.csv",
         ["--mode", "constant", "--t-steps", "4", "--n-paths", "2"]),
        ("golden_payoff_path_none_seed1.csv",
         ["--mode", "none", "--t-steps", "4", "--n-paths", "2"]),
    ])
    def test_golden_payoff_path_bytes(self, tmp_path, golden_name, opts):
        # frozen from payoff-path <opts> --seed 1 --workers 1; any change
        # to these bytes must be explained
        golden = pathlib.Path(__file__).parent / "data" / golden_name
        rc = main(["payoff-path", "--out", str(tmp_path), *opts,
                   "--seed", "1", "--workers", "1"])
        assert rc == 0
        assert (tmp_path / "payoff_path.csv").read_bytes() == golden.read_bytes()


class TestValidateCommand:
    def test_quick_run_passes_and_writes_csv(self, tmp_path, monkeypatch):
        import homesale.oracle as oracle_mod

        original = oracle_mod.validate_all

        def quick(**kw):
            kw.update(t_values=(1.0,), lam_values=(5.0,), include_paths=False)
            return original(**kw)

        monkeypatch.setattr("homesale.cli.oracle.validate_all", quick)
        rc = main(["validate", "--out", str(tmp_path), "--n", "20000"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "validation.csv")
        assert header == ["check_name", "analytic", "mc_mean", "mc_stderr",
                          "z", "verdict"]
        assert rows

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_golden_validation_bytes(self, tmp_path, workers):
        # frozen from validate --n 2000 --seed 1 --workers 1, path rows
        # included; the worker count must not change a byte
        golden = pathlib.Path(__file__).parent / "data" / "golden_validation_seed1.csv"
        rc = main(["validate", "--out", str(tmp_path), "--n", "2000", "--seed", "1",
                   "--workers", workers])
        assert rc == 0
        assert (tmp_path / "validation.csv").read_bytes() == golden.read_bytes()


class TestWorkersFlag:
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_below_one_is_usage_error(self, tmp_path, workers):
        rc = main(["owt", "--out", str(tmp_path), "--t-steps", "5",
                   "--workers", workers])
        assert rc == 2
        assert not (tmp_path / "owt_curve.csv").exists()


class TestFloatFormat:
    def test_seventeen_digit_round_trip(self, tmp_path):
        rc = main(["owt", "--out", str(tmp_path), "--t-steps", "5"])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "owt_curve.csv")
        from homesale.closed_form import listed_payoff, MarketParams
        m = MarketParams(5, 5, 0.1, 100, 200)
        for r in rows:
            T = float(r[0])
            assert float(r[1]) == listed_payoff(T, m, 140.0, 180.0)

    def test_fmt_float_and_numpy_float_agree(self):
        for x in (0.1, 1e-300, -2.5, 188.48145879262876, math.inf):
            assert _fmt(x) == _fmt(np.float64(x)) == f"{x:.17g}"
        assert _fmt(math.nan) == _fmt(np.float64("nan")) == ""
        assert _fmt(-0.0) == _fmt(np.float64(-0.0)) == "-0"
        assert _fmt(3) == _fmt(np.int64(3)) == "3"
        assert _fmt("Sale") == "Sale" and _fmt(None) == ""
