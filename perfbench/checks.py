"""Output checks, one per workload.

Each check reads the files one CLI call wrote and returns a list of
problems (empty when the output is correct).  None of them compares
bytes: the checks hold for any output the model allows, so a change
that is allowed to alter a random stream (say, a new thinning bound)
still passes while a wrong answer does not.

Statistical checks use wide bands (5 to 6 standard errors), because the
benchmark runs them thousands of times and a chance miss must not read
as a failure.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from homesale.cli import ScenarioConfig
from homesale.closed_form import MarketParams, expected_utility
from homesale.stochastic import RATE_FLOOR, simulate_cir, substream

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# sweep axis name -> ScenarioConfig field it overrides
_AXIS_FIELDS = {"lam": "arrival_intensity", "mu": "withdrawal_intensity",
                "r": "interest_rate", "p_min": "p_min", "p_max": "p_max",
                "reservation": "reservation_price", "list_price": "list_price",
                "gamma": "waiting_averseness"}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a homesale CSV, skipping '#' comment lines."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def check_surface(out: Path, seed: int, rng: np.random.Generator, cells: int = 3,
                  dense: int = 2000) -> list[str]:
    """Every t_star is in (0, t_max]; on a few cells the seed picks, the
    utility at t_star is at least the maximum over a dense T grid."""
    cfg = ScenarioConfig()
    header, rows = read_csv(out / "sweep.csv")
    x_name, y_name = header[0], header[1]
    vals = np.array([[_num(v) for v in row] for row in rows])
    problems = []
    t_star = vals[:, 2]
    bad = ~((t_star > 0) & (t_star <= cfg.t_max))
    if bad.any():
        problems.append(f"{int(bad.sum())} cells with t_star outside (0, {cfg.t_max}]")
        return problems
    grid = np.linspace(cfg.t_max / dense, cfg.t_max, dense)
    for i in rng.choice(len(rows), size=min(cells, len(rows)), replace=False):
        over = {_AXIS_FIELDS[x_name]: vals[i, 0], _AXIS_FIELDS[y_name]: vals[i, 1]}
        p = {f: over.get(f, getattr(cfg, f)) for f in _AXIS_FIELDS.values()}
        m = MarketParams(p["arrival_intensity"], p["withdrawal_intensity"],
                         p["interest_rate"], p["p_min"], p["p_max"])
        args = (m, p["reservation_price"], p["list_price"], p["waiting_averseness"])
        u_star = expected_utility(float(t_star[i]), *args, exact=True)
        u_grid = max(expected_utility(float(T), *args, exact=True) for T in grid)
        if u_star < u_grid - 1e-6 * max(1.0, abs(u_grid)):
            problems.append(f"cell {x_name}={vals[i, 0]} {y_name}={vals[i, 1]}: utility "
                            f"{u_star!r} at t_star={t_star[i]!r} < grid max {u_grid!r}")
    return problems


def check_paths(out: Path, seed: int, rng: np.random.Generator,
                n_paths: int, sigmas: float = 6.0) -> list[str]:
    """Each payoff is in [0, p_max] and within `sigmas` standard errors of
    a many-path reference run (perfbench/reference.json).

    The band is scaled by the reference's own per-path spread, because
    the stderr that an n_paths-path run reports is itself too noisy to
    scale a bound by.
    """
    cfg = ScenarioConfig()
    ref = json.loads(REFERENCE.read_text())["paths"]
    ref_t = np.array(ref["t"])
    ref_mean = np.array(ref["payoff"])
    ref_se = np.array(ref["stderr"])
    ref_sd = ref_se * math.sqrt(ref["n_paths"])
    _, rows = read_csv(out / "payoff_path.csv")
    problems = []
    if len(rows) != ref_t.size:
        return [f"{len(rows)} rows, reference has {ref_t.size}"]
    for k, row in enumerate(rows):
        t, payoff, stderr = (_num(v) for v in row)
        if not math.isclose(t, ref_t[k], rel_tol=1e-12):
            problems.append(f"row {k}: t={t!r}, reference t={ref_t[k]!r}")
        elif not (0.0 <= payoff <= cfg.p_max) or not (stderr >= 0.0):
            problems.append(f"t={t}: payoff {payoff!r} or stderr {stderr!r} out of range")
        else:
            band = sigmas * math.hypot(ref_sd[k] / math.sqrt(n_paths), ref_se[k])
            if abs(payoff - ref_mean[k]) > band:
                problems.append(f"t={t}: payoff {payoff!r} vs reference {ref_mean[k]!r} "
                                f"(band {band:.4g})")
    return problems


def check_evolve(out: Path, seed: int, rng: np.random.Generator) -> list[str]:
    """Event-stream invariants: time order, one Sale or NoSale per attempt,
    sale prices in [reservation, p_max], non-negative rates."""
    cfg = ScenarioConfig()
    header, rows = read_csv(out / "evolution.csv")
    col = {name: i for i, name in enumerate(header)}
    problems = []
    prev_t = -math.inf
    owner_reservation: dict[int, float] = {}
    repriced: dict[int, tuple[int, float]] = {}   # attempt -> (owner, new reservation)
    posted: set[int] = set()
    ends: dict[int, int] = {}
    for row in rows:
        t = _num(row[col["time"]])
        kind = row[col["event_type"]]
        owner = int(row[col["owner_index"]])
        attempt = int(row[col["attempt_index"]])
        price = _num(row[col["price"]])
        if not t >= prev_t:
            problems.append(f"event at t={t!r} after t={prev_t!r}")
        prev_t = t
        if not _num(row[col["rate"]]) >= 0.0:
            problems.append(f"negative rate at t={t!r}")
        if kind == "OccupationStart":
            owner_reservation[owner] = price
        elif kind == "PostForSale":
            posted.add(attempt)
        elif kind == "Reprice":
            repriced[attempt] = (owner, price)
        elif kind in ("Sale", "NoSale"):
            ends[attempt] = ends.get(attempt, 0) + 1
            if kind == "Sale":
                prev = repriced.get(attempt - 1)
                resv = prev[1] if prev and prev[0] == owner else owner_reservation[owner]
                if not (resv <= price <= cfg.p_max):
                    problems.append(f"sale at t={t!r} for {price!r} outside "
                                    f"[{resv!r}, {cfg.p_max}]")
    for attempt in posted | set(ends):
        if ends.get(attempt, 0) != 1 or attempt not in posted:
            problems.append(f"attempt {attempt}: posted={attempt in posted}, "
                            f"{ends.get(attempt, 0)} Sale/NoSale events")
    _, rate_rows = read_csv(out / "rates.csv")
    if any(not _num(r[1]) >= 0.0 for r in rate_rows):
        problems.append("rates.csv holds a negative rate")
    return problems[:20]


def _reference_attempts(cfg: ScenarioConfig, path, t_post: float, t_star: float,
                        n: int, rng: np.random.Generator) -> tuple[float, float, float]:
    """Independent Monte Carlo of n sale attempts posted at t_post.

    Returns (mean price of sales, its stderr, no-sale fraction).  The
    offer stream is thinned from a homogeneous one under the demand
    k1/r + k2/L(a); an offer at or above the decaying list sells at once,
    otherwise the best offer above the reservation still standing at
    t_star sells.
    """
    R, L0 = cfg.initial_reservation_price, min(cfg.initial_list_price, cfg.p_max)

    def listed(a):
        return R + (L0 - R) * np.exp(-cfg.zeta * a)

    def intensity(a):
        r = np.maximum(np.interp(t_post + a, path.times, path.values), RATE_FLOOR)
        return cfg.k1 / r + cfg.k2 / listed(a)

    # the rate is piecewise linear, so k1/r peaks on a grid node; L decays
    window = (path.times >= t_post) & (path.times <= t_post + t_star)
    r_nodes = np.concatenate((path.values[window],
                              np.interp([t_post, t_post + t_star], path.times, path.values)))
    bound = (cfg.k1 / max(float(r_nodes.min()), RATE_FLOOR) + cfg.k2 / float(listed(t_star))) \
        * (1.0 + 1e-9)
    counts = rng.poisson(bound * t_star, n)
    rep = np.repeat(np.arange(n), counts)
    a = rng.uniform(0.0, t_star, rep.size)
    keep = rng.uniform(0.0, bound, rep.size) < intensity(a)
    rep, a = rep[keep], a[keep]
    value = rng.uniform(cfg.p_min, cfg.p_max, a.size)
    delay = rng.exponential(1.0 / cfg.sim_withdrawal_intensity, a.size)
    above = value >= listed(a)
    first = np.full(n, np.inf)
    np.minimum.at(first, rep[above], a[above])
    crossed = np.isfinite(first)
    cross_price = np.zeros(n)
    win = above & (a == first[rep])
    cross_price[rep[win]] = value[win]
    best = np.zeros(n)
    alive = (value >= R) & (delay >= t_star - a)
    np.maximum.at(best, rep[alive], value[alive])
    price = np.where(crossed, cross_price, best)
    sold = crossed | (best > 0)
    prices = price[sold]
    return (float(prices.mean()), float(prices.std(ddof=1) / math.sqrt(prices.size)),
            1.0 - prices.size / n)


def check_price(out: Path, seed: int, rng: np.random.Generator, n_reps: int,
                n_ref: int = 20000, sigmas: float = 5.0) -> list[str]:
    """Mean sale price per posting time agrees with an independent Monte
    Carlo of the same attempts within `sigmas` standard errors, and the
    no-sale fraction lies in [0, 1] and agrees likewise.

    The rate path is regenerated from the seed the way expected-price
    draws it (substream "rates"); t_star is taken from the output.
    """
    cfg = ScenarioConfig(seed=seed)
    _, rows = read_csv(out / "expected_price.csv")
    vals = np.array([[_num(v) for v in row] for row in rows])
    times = vals[:, 0]
    path = simulate_cir(cfg.cir_params(), float(times.max()) + cfg.t_max + 1.0, cfg.dt,
                        substream(seed, "rates"))
    problems = []
    for t, t_star, mean, stderr, n_sales, no_sale in vals:
        if not (0.0 < t_star <= cfg.t_max and 0.0 <= no_sale <= 1.0 and n_sales >= 2):
            problems.append(f"time {t}: t_star={t_star!r} n_sales={n_sales!r} "
                            f"no_sale_fraction={no_sale!r}")
            continue
        ref_mean, ref_se, ref_no = _reference_attempts(cfg, path, t, t_star, n_ref, rng)
        band = sigmas * math.hypot(stderr, ref_se)
        if abs(mean - ref_mean) > band:
            problems.append(f"time {t}: mean price {mean!r} vs reference {ref_mean!r} "
                            f"(band {band:.4g})")
        p = min(max(ref_no, 1.0 / n_ref), 1.0 - 1.0 / n_ref)
        band = sigmas * math.sqrt(p * (1.0 - p) * (1.0 / n_reps + 1.0 / n_ref))
        if abs(no_sale - ref_no) > band:
            problems.append(f"time {t}: no-sale fraction {no_sale!r} vs reference "
                            f"{ref_no!r} (band {band:.4g})")
    return problems


# A check row this many standard errors out is not a chance 3-sigma miss.
ORACLE_HARD_SIGMAS = 6.0


def check_oracle(out: Path, seed: int, rng: np.random.Generator) -> list[str]:
    """No pass/fail row of validation.csv is beyond ORACLE_HARD_SIGMAS.

    Rows beyond 3 sigma but within the hard bound are chance misses: they
    make `validate` exit 1 and are counted, not failed.  Rows without a
    z (analytic-only checks) must pass.
    """
    header, rows = read_csv(out / "validation.csv")
    col = {name: i for i, name in enumerate(header)}
    problems = []
    n_checks = 0
    for row in rows:
        verdict = row[col["verdict"]]
        if verdict == "report":
            continue
        n_checks += 1
        z = _num(row[col["z"]])
        if math.isnan(z) and verdict != "pass":
            problems.append(f"{row[col['check_name']]}: {verdict}")
        elif abs(z) > ORACLE_HARD_SIGMAS:
            problems.append(f"{row[col['check_name']]}: z={z!r}")
    if n_checks == 0:
        problems.append("validation.csv has no check rows")
    return problems


def count_rows(out: Path) -> int:
    """Data rows the command wrote: CSV rows after the header, plus lines
    of text outputs, comment lines excluded."""
    total = 0
    for f in sorted(out.iterdir()):
        if f.name in ("stdout.txt", "spans.npz"):
            continue
        with open(f) as fh:
            n = sum(1 for line in fh if not line.startswith("#"))
        total += n - 1 if f.suffix == ".csv" else n
    return total
