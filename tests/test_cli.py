import csv
import hashlib
import importlib.util
import math
import pathlib
import re
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homesale import cli
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
        f.write_text("# scenario\nwaiting_averseness = 0.0\nseed = 7\n"
                     "price_replications = 5\nout_dir = x\n")
        cfg = load_config(str(f))
        assert cfg.waiting_averseness == 0.0
        assert cfg.seed == 7
        # each key parses as its field's type
        assert type(cfg.price_replications) is int and cfg.price_replications == 5
        assert type(cfg.out_dir) is str and cfg.out_dir == "x"

    def test_unknown_key_is_an_error(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("arival_intensity = 5\n")
        rc = main(["owt", "--config", str(f), "--out", str(tmp_path)])
        assert rc == 2

    # an int, a float and a string key; the repeat is reported before its
    # value is parsed, so a bad second value names the repeat too
    @pytest.mark.parametrize("key, first, second", [("seed", "3", "5"),
                                                    ("interest_rate", "0.1", "0.2"),
                                                    ("out_dir", "a", "b"),
                                                    ("seed", "3", "oops")])
    def test_key_set_twice_is_an_error(self, tmp_path, capsys, key, first, second):
        f = tmp_path / "s.cfg"
        f.write_text(f"{key} = {first}\n# retry\n{key} = {second}\n")
        with pytest.raises(cli.ConfigError, match=rf"s\.cfg:3: {key} already set on line 1"):
            load_config(str(f))
        out = tmp_path / "out"
        assert main(["owt", "--config", str(f), "--out", str(out)]) == 2
        assert f"{key} already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_hash_tracks_content(self):
        a = ScenarioConfig()
        b = ScenarioConfig(seed=99)
        assert config_hash(a) != config_hash(b)

    def test_inconsistent_policy_is_config_error(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("reservation_price = 190\nlist_price = 150\n")
        rc = main(["owt", "--config", str(f), "--out", str(tmp_path)])
        assert rc == 2

    def test_readme_domain_table_lists_every_key(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        keys = [k for row in rows for k in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert len(keys) == len(set(keys))
        assert set(keys) == {f.name for f in fields(ScenarioConfig)} - {"out_dir"}

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a file where a directory is needed
        rc = main(["owt", "--out", str(blocker / "sub"), "--t-steps", "3"])
        assert rc == 2


# The minimal arguments of each command; a scenario error must stop it
# before any of them is used.
COMMANDS = {
    "owt": ["--t-steps", "2"],
    "sweep": ["--x", "lam:1:2:2", "--y", "r:0.1:0.2:2"],
    "evolve": ["--horizon", "1"],
    "expected-price": ["--times", "1", "--n-reps", "2"],
    "payoff-path": ["--t-steps", "2", "--n-paths", "2"],
    "validate": ["--n", "2"],
}

# One value outside each key's domain.  list_price = 250 used to let
# sweep exit 0 with every t_star empty; waiting_averseness = -0.5 is one
# of the two cases of the deleted SellerPolicy class.
OUT_OF_DOMAIN = {
    "arrival_intensity": "-1", "withdrawal_intensity": "-1", "interest_rate": "-1",
    "reservation_price": "190", "list_price": "250", "waiting_averseness": "-0.5",
    "p_min": "0", "p_max": "50", "sim_withdrawal_intensity": "-1",
    "occupation_min": "-1", "occupation_max": "3", "crisis_mean": "0",
    "initial_reservation_price": "90", "initial_list_price": "250",
    "sim_waiting_averseness": "-1", "interest_rate_threshold": "0", "k1": "-1",
    "k2": "-1", "theta": "0", "sigma": "-1", "kappa": "0", "r0": "0", "zeta": "-1",
    "dt": "0", "horizon": "-1", "t_max": "0", "tol": "0", "seed": "-1",
    "mc_replications": "1", "price_replications": "0", "path_replications": "0",
}

# The name an error uses where the checked object's field differs from
# the key, as the README documents.
ERROR_NAME = {
    "arrival_intensity": "lam", "withdrawal_intensity": "mu", "interest_rate": "r",
    "sim_withdrawal_intensity": "mu", "sim_waiting_averseness": "gamma",
    "occupation_min": "occupation_lo", "occupation_max": "occupation_hi",
    "interest_rate_threshold": "rate_threshold",
    "initial_reservation_price": "initial_reservation",
    "initial_list_price": "initial_list",
}

SCENARIO_KEYS = [f.name for f in fields(ScenarioConfig) if f.name != "out_dir"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("text, key", [
    (f"{key} = {value}", key)
    for key in SCENARIO_KEYS for value in ("nan", "inf", OUT_OF_DOMAIN[key])
] + [("reservation_price = 180\nlist_price = 140", "reservation_price")])
def test_every_command_rejects_every_bad_key(tmp_path, capsys, command, text, key):
    f = tmp_path / "s.cfg"
    f.write_text(text + "\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(f), "--out", str(out), *COMMANDS[command]])
    assert rc == 2
    assert re.search(rf"\b{ERROR_NAME.get(key, key)}\b", capsys.readouterr().err)
    assert not out.exists()


# The three commands that simulate a rate path: a flag whose count of dt
# steps is infinite at the default dt, then a scenario dt that makes a
# finite count too large for any array index.
@pytest.mark.parametrize("command, scenario, args", [
    ("evolve", "", ["--horizon", "1e308"]),
    ("payoff-path", "", ["--t-max", "1e308", "--t-steps", "2", "--n-paths", "2"]),
    ("expected-price", "", ["--times", "1e308", "--n-reps", "2"]),
] + [(command, "dt = 1e-300\n", COMMANDS[command])
     for command in ("evolve", "payoff-path", "expected-price")])
def test_overflowing_step_count_is_config_error(tmp_path, capsys, command, scenario, args):
    f = tmp_path / "s.cfg"
    f.write_text(scenario)
    out = tmp_path / "out"
    rc = main([command, "--config", str(f), "--out", str(out), *args])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.search(r"\bhorizon\b", err) and re.search(r"\bdt\b", err)
    assert not out.exists()


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

    @pytest.mark.parametrize("mode", ["listed", "no-list"])
    def test_infinite_tol_is_config_error(self, tmp_path, capsys, mode):
        # tol = inf used to skip the refinement: exit 0 with t_star=2.109375
        f = tmp_path / "s.cfg"
        f.write_text("tol = inf\n")
        out = tmp_path / "out"
        rc = main(["owt", "--mode", mode, "--config", str(f), "--out", str(out)])
        assert rc == 2
        assert "tol must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_t_max_is_config_error(self, tmp_path, capsys, t_max):
        # rejected before the curve grid is built, so numpy does not warn
        out = tmp_path / "out"
        rc = main(["owt", "--out", str(out), "--t-max", t_max])
        assert rc == 2
        assert "t_max must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_t_steps_is_usage_error(self, tmp_path, capsys):
        # used to exit 0 with a header-only CSV
        out = tmp_path / "out"
        rc = main(["owt", "--out", str(out), "--t-steps", "-5"])
        assert rc == 2
        assert "--t-steps" in capsys.readouterr().err
        assert not out.exists()

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

    def test_sweep_digest(self, tmp_path):
        # the benchmark's surface run: 576 cells in three refinement blocks,
        # far more than the goldens above hold, so its SHA-256 is pinned
        rc = main(["sweep", "--out", str(tmp_path), "--x", "lam:1:12:24",
                   "--y", "r:0.02:0.3:24", "--seed", "1", "--workers", "1"])
        assert rc == 0
        got = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert got == "c5b4b2243c517711477c109a6c5279a034d52a709ef085a746ce1700a189fc55"

    def test_bad_axis_spec_is_usage_error(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path), "--x", "lam:1:10", "--y", "r:0:1:2"])
        assert rc == 2

    def test_same_parameter_on_both_axes_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--out", str(out), "--x", "lam:1:12:3", "--y", "lam:1:12:3"])
        assert rc == 2
        assert "both sweep axes are 'lam'" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_infinite_axis_is_config_error(self, tmp_path, capsys):
        # numpy used to warn in linspace and write inf/empty cells
        out = tmp_path / "out"
        rc = main(["sweep", "--out", str(out), "--x", "lam:1:inf:2", "--y", "r:0.1:0.2:2"])
        assert rc == 2
        assert "lam axis stop must be finite" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_infinite_tol_is_config_error(self, tmp_path, capsys):
        f = tmp_path / "s.cfg"
        f.write_text("tol = inf\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(f), "--out", str(out),
                   "--x", "lam:1:2:2", "--y", "r:0.1:0.2:2"])
        assert rc == 2
        assert "tol must be finite" in capsys.readouterr().err
        assert not out.exists()


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

    def test_evolve_digest(self, tmp_path):
        # the benchmark's evolve run: 55,693 rate rows, far more than the
        # goldens above hold, so the SHA-256 of each output is pinned
        rc = main(["evolve", "--out", str(tmp_path), "--horizon", "200",
                   "--seed", "1", "--workers", "1"])
        assert rc == 0
        digests = {
            "rates.csv": "5c88477ffbc125a16f0e94accc612217be47d1d760ae870f96fa13686590d473",
            "evolution.csv": "e776ef2192684b9a842461f7e77ae23e9263661fba7ac9ef5d1a6e25904854d9",
            "events.txt": "fa6442e48360d95853a7b29a8b9dae245078619a52c05f48bb5684baf5d2fcf9",
        }
        for name, digest in digests.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, name

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

    def test_expected_price_digest(self, tmp_path):
        # the benchmark's price run: 10 posting times x 750 attempts, far
        # more than the golden above covers, so its SHA-256 is pinned
        rc = main(["expected-price", "--out", str(tmp_path),
                   "--times", "2,4,6,8,10,12,14,16,18,20", "--n-reps", "750",
                   "--seed", "1", "--workers", "1"])
        assert rc == 0
        got = hashlib.sha256((tmp_path / "expected_price.csv").read_bytes()).hexdigest()
        assert got == "afbf96d765a251d214b70234a100926a625cf1141e6f2cc058c7bb0a37d75082"

    def test_output_passes_the_benchmark_price_check(self, tmp_path):
        # the price workload's check: mean prices and no-sale shares agree
        # with an independent Monte Carlo of the same attempts
        spec = importlib.util.spec_from_file_location(
            "perfbench_checks", pathlib.Path(__file__).parents[1] / "perfbench" / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        rc = main(["expected-price", "--out", str(tmp_path), "--times", "2,4,6,8,10",
                   "--n-reps", "750", "--seed", "3", "--workers", "1"])
        assert rc == 0
        assert checks.check_price(tmp_path, 3, np.random.default_rng(3), 750) == []

    def test_list_above_offer_support_is_config_error(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("initial_list_price = 250\n")
        out = tmp_path / "out"
        rc = main(["expected-price", "--config", str(f), "--out", str(out),
                   "--times", "2", "--n-reps", "30"])
        assert rc == 2
        assert not out.exists()

    # the flag reports every bad entry, so the error names --times
    @pytest.mark.parametrize("times", ["2,inf", "-1", "nan", "2,-0.5"])
    def test_infinite_posting_time_is_config_error(self, tmp_path, capsys, times):
        out = tmp_path / "out"
        rc = main(["expected-price", "--out", str(out), "--times", times,
                   "--n-reps", "30"])
        assert rc == 2
        assert "--times" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("times", ["", ","])
    def test_empty_times_is_usage_error(self, tmp_path, capsys, times):
        # numpy's zero-size reduction error used to surface instead
        out = tmp_path / "out"
        rc = main(["expected-price", "--out", str(out), "--times", times, "--n-reps", "2"])
        assert rc == 2
        assert "--times" in capsys.readouterr().err
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

    @pytest.mark.parametrize("flag, value", [("--t-steps", "-3"), ("--t-max", "inf"),
                                             ("--t-max", "nan"), ("--t-max", "0")])
    def test_bad_grid_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        # --t-steps -3 used to exit 0 with a header-only CSV, and --t-max inf
        # to warn in numpy and then report a NaN horizon
        out = tmp_path / "out"
        rc = main(["payoff-path", "--out", str(out), "--n-paths", "1", flag, value])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("opts,digest", [
        # the README run: 200 paths x 40 horizons
        (["--mode", "changing", "--t-steps", "40", "--n-paths", "200"],
         "5af314202535be0a76d7f5a2b373c46d3138ebe707d03c5c7f07c4a57781785a"),
        (["--mode", "constant", "--t-steps", "10", "--n-paths", "20"],
         "b276b32fd474f1da2ec4b5da51feeeef7ae847e07e0bb1547c26b4051821a7af"),
        (["--mode", "none", "--t-steps", "10", "--n-paths", "20"],
         "1fd42535e8ba15af7cff883dc38dfbe1c4d8160319ca69c55353da37c93cf378"),
    ])
    def test_payoff_path_digest(self, tmp_path, opts, digest):
        # the goldens above hold at most 3 paths x 7 horizons; these runs
        # are too large to keep as files, so their SHA-256 is pinned
        # instead (taken before horizons were evaluated in path batches)
        rc = main(["payoff-path", "--out", str(tmp_path), *opts,
                   "--seed", "1", "--workers", "1"])
        assert rc == 0
        got = hashlib.sha256((tmp_path / "payoff_path.csv").read_bytes()).hexdigest()
        assert got == digest


class TestValidateCommand:
    def test_quick_run_passes_and_writes_csv(self, tmp_path, monkeypatch):
        import homesale.oracle as oracle_mod

        original = oracle_mod.validate_all

        def quick(**kw):
            kw.update(t_values=(1.0,), lam_values=(5.0,), path_t_values=())
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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_validation_digest(self, tmp_path, workers):
        # the benchmark's validate run; two of its check rows miss 3
        # sigma on shared draws, so it exits 1.  Too many replications
        # for a golden file, so the SHA-256 is pinned instead.
        rc = main(["validate", "--out", str(tmp_path), "--n", "25000", "--seed", "1",
                   "--workers", workers])
        assert rc == 1
        got = hashlib.sha256((tmp_path / "validation.csv").read_bytes()).hexdigest()
        assert got == "06f0fb25c8878d52d13a6079fee07355afce3aeb9a9b5ea8fd42d2d2e8e03882"


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
        assert _fmt('a,"b"') == '"a,""b"""' and _fmt("a\nb") == '"a\nb"'


def _row_fmt(x) -> str:
    """The per-value formatter of the row writer that _write_csv replaced."""
    if type(x) is not float:
        if isinstance(x, str):
            return x
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if x is None:
            return ""
        x = float(x)
    return "" if math.isnan(x) else f"{x:.17g}"


def reference_csv(path, cfg, header, columns, extra_comment=None):
    """The row writer that _write_csv replaced: csv.writer over _row_fmt."""
    with open(path, "w", newline="") as fh:
        fh.write(cli._stamp(cfg))
        if extra_comment:
            fh.write(f"# {extra_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_row_fmt(v) for v in row])


BLOCK = 4  # the writer's block size in these tests

FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     1.7976931348623157e308]),
    st.floats())
FLOAT32S = st.floats(width=32).map(np.float32)
INT64S = st.integers(-2**63, 2**63 - 1)
TEXTS = st.text(st.sampled_from('ab ,"\r\n'), max_size=4)
SCALARS = st.one_of(FLOATS, FLOATS.map(np.float64), FLOAT32S, st.integers(),
                    INT64S.map(np.int64), st.none(), TEXTS)


@st.composite
def tables(draw):
    """(header, columns): 2-4 columns of one length around the block size.

    Every command writes two or more columns; csv.writer writes a lone
    empty field as '""', so one column is left out."""
    n = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    width = draw(st.integers(2, 4))
    column = st.one_of(
        st.lists(FLOATS, min_size=n, max_size=n).map(np.array),
        st.lists(FLOAT32S, min_size=n, max_size=n).map(lambda v: np.array(v, np.float32)),
        st.lists(INT64S, min_size=n, max_size=n).map(lambda v: np.array(v, np.int64)),
        st.lists(FLOATS, min_size=n, max_size=n),
        st.lists(SCALARS, min_size=n, max_size=n))
    header = draw(st.lists(TEXTS, min_size=width, max_size=width))
    return header, [draw(column) for _ in range(width)]


class TestCsvWriter:
    def assert_matches_row_writer(self, tmp_path, header, columns, comment=None):
        cfg = ScenarioConfig()
        with mock.patch.object(cli, "_BLOCK_ROWS", BLOCK):
            cli._write_csv(tmp_path / "new.csv", cfg, header, columns, comment)
        reference_csv(tmp_path / "old.csv", cfg, header, columns, comment)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tables())
    def test_equals_the_row_writer(self, tmp_path_factory, table):
        self.assert_matches_row_writer(tmp_path_factory.mktemp("csv"), *table)

    def test_nan_only_in_the_second_block(self, tmp_path):
        t = np.arange(BLOCK + 1, dtype=float)
        r = t / 3.0
        r[BLOCK] = math.nan
        self.assert_matches_row_writer(tmp_path, ["t", "r"], [t, r], "t_star=1")

    def test_percent_signs_in_the_data_are_text(self, tmp_path):
        # a '%' in a header or a field is data, never a format directive
        texts = ["%", "%s", "%%", "%.17g", "a,%s", '"%%"', "100%"]
        n = len(texts)
        self.assert_matches_row_writer(
            tmp_path, ["%", "%s", "%%", "%.17g"],
            [texts, np.arange(n) / 3.0, [1.5, math.nan] * 3 + [0.25], texts[::-1]],
            "t_star=%s")

    def test_no_columns_write_the_header_alone(self, tmp_path):
        self.assert_matches_row_writer(tmp_path, ["time", "event_type"], [])
        lines = (tmp_path / "new.csv").read_text().splitlines()
        assert lines[1:] == ["time,event_type"]

    def test_memory_stays_at_one_block(self, tmp_path):
        t = np.arange(200_000) / 252.0
        r = np.sqrt(t)
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "big.csv", ScenarioConfig(), ["t", "r"], [t, r])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
