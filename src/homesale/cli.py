"""Command-line entry point.

Subcommands: owt, sweep, evolve, expected-price, payoff-path, validate.
Every command reads one flat key=value scenario file (all keys have
defaults matching the reference parameter tables), takes --seed/--out
overrides, and writes plot-ready CSV.  Output files embed the config
hash and seed in a leading comment line so runs can be traced.

Exit codes: 0 success, 1 validation failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import market_sim, oracle, path_payoff
from .closed_form import (MarketParams, _ops, expected_utility, listed_payoff,
                          listed_payoff_exact, thinned_payoff)
from .owt import SweepAxis, SweepSpec, optimal_waiting_time, sweep_owt
# simulate_cir is not called here; the benchmark tracer wraps cli.simulate_cir
from .stochastic import CirParams, DemandParams, simulate_cir

__all__ = ["ScenarioConfig", "load_config", "main"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat scenario description; defaults are the reference tables.

    The waiting-time analysis block and the simulation block each carry
    their own withdrawal intensity and impatience (the sim_ prefix keeps
    the two apart).  Every key is checked when the config is built, so
    every command accepts and rejects the same scenarios.
    """

    # waiting-time analysis block
    arrival_intensity: float = 5.0
    withdrawal_intensity: float = 5.0
    interest_rate: float = 0.1
    reservation_price: float = 140.0
    list_price: float = 180.0
    waiting_averseness: float = 0.1
    p_min: float = 100.0
    p_max: float = 200.0
    # simulation block
    sim_withdrawal_intensity: float = 10.0
    occupation_min: float = 4.0
    occupation_max: float = 6.0
    crisis_mean: float = 10.0
    initial_reservation_price: float = 140.0
    initial_list_price: float = 200.0
    sim_waiting_averseness: float = 0.8
    interest_rate_threshold: float = 0.06
    k1: float = 0.5
    k2: float = 1000.0
    theta: float = 0.1
    sigma: float = 0.08
    kappa: float = 0.25
    r0: float = 0.09
    # artifact knobs
    zeta: float = 1.0
    dt: float = 1.0 / 252.0
    horizon: float = 50.0
    t_max: float = 20.0
    tol: float = 1e-4
    seed: int = 12345
    mc_replications: int = 1_000_000
    price_replications: int = 1000
    path_replications: int = 200
    out_dir: str = "out"

    def __post_init__(self):
        # the value objects keep their own checks for library callers;
        # building them here checks every key they read
        self.market_params()
        self.evolution_config()
        if not self.p_min <= self.reservation_price <= self.list_price <= self.p_max:
            raise ValueError(
                "need p_min <= reservation_price <= list_price <= p_max, got "
                f"p_min={self.p_min}, reservation_price={self.reservation_price}, "
                f"list_price={self.list_price}, p_max={self.p_max}")
        for name, low in (("waiting_averseness", 0), ("horizon", 0), ("seed", 0),
                          ("mc_replications", 2), ("price_replications", 1),
                          ("path_replications", 1)):
            value = getattr(self, name)
            if not low <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= {low}, got {value}")

    def market_params(self) -> MarketParams:
        return MarketParams(self.arrival_intensity, self.withdrawal_intensity,
                            self.interest_rate, self.p_min, self.p_max)

    def cir_params(self) -> CirParams:
        return CirParams(self.kappa, self.theta, self.sigma, self.r0)

    def evolution_config(self) -> market_sim.EvolutionConfig:
        return market_sim.EvolutionConfig(
            cir=self.cir_params(), demand=DemandParams(self.k1, self.k2),
            mu=self.sim_withdrawal_intensity, gamma=self.sim_waiting_averseness,
            zeta=self.zeta, p_min=self.p_min, p_max=self.p_max,
            initial_reservation=self.initial_reservation_price,
            initial_list=self.initial_list_price,
            occupation_lo=self.occupation_min, occupation_hi=self.occupation_max,
            crisis_mean=self.crisis_mean, rate_threshold=self.interest_rate_threshold,
            dt=self.dt, t_max=self.t_max, tol=self.tol)


class ConfigError(Exception):
    pass


def load_config(path: str) -> ScenarioConfig:
    """Parse a flat key = value scenario file.

    Blank lines and #-comments are skipped; unknown keys and keys set
    twice are errors so a typo cannot silently change the scenario.
    """
    # annotations are strings here (from __future__ import annotations)
    parsers = {f.name: {"int": int, "str": str}.get(f.type, float)
               for f in fields(ScenarioConfig)}
    overrides, set_on = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in parsers:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            overrides[key] = parsers[key](value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from e
    try:
        return ScenarioConfig(**overrides)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def config_hash(cfg: ScenarioConfig) -> str:
    """Hash of the scenario content; the output directory is not part of
    the scenario, so identical runs into different directories match."""
    canon = "\n".join(f"{f.name}={getattr(cfg, f.name)!r}"
                      for f in fields(ScenarioConfig) if f.name != "out_dir")
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _stamp(cfg: ScenarioConfig) -> str:
    """The leading comment line of every output file."""
    return f"# homesale config_hash={config_hash(cfg)} seed={cfg.seed}\n"


def _fmt(x) -> str:
    """One CSV field: None and NaN empty, integers exact, other numbers in 17
    significant digits, text quoted as csv.writer's QUOTE_MINIMAL does."""
    if type(x) is not float:  # floats, the bulk of every list column, skip this chain
        if isinstance(x, str):  # quoted when it holds the delimiter, '"' or "\n"
            return '"' + x.replace('"', '""') + '"' if any(c in x for c in ',"\n') else x
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if x is None:
            return ""
        x = float(x)
    return "" if math.isnan(x) else f"{x:.17g}"


_BLOCK_ROWS = 4096  # rows per write: the writer holds one block, whatever the row count


def _write_csv(path: Path, cfg: ScenarioConfig, header: list[str], columns: list,
               extra_comment: str = None) -> None:
    """Write one CSV from its columns: ndarrays or sequences of one length,
    or none for a header-only file.

    Each block is one % operation on its row template repeated once per
    row: a float ndarray block without NaN goes straight into "%.17g",
    every other field through _fmt into "%s".
    """
    n_rows = len(columns[0]) if columns else 0
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(_stamp(cfg))
            if extra_comment:
                fh.write(f"# {extra_comment}\n")
            fh.write(",".join(map(_fmt, header)) + "\n")
            for start in range(0, n_rows, _BLOCK_ROWS):
                specs, values = [], []
                for column in columns:
                    block = column[start:start + _BLOCK_ROWS]
                    floats = (isinstance(block, np.ndarray) and block.dtype.kind == "f"
                              and not np.isnan(block).any())
                    if isinstance(block, np.ndarray):
                        block = block.tolist()
                    specs.append("%.17g" if floats else "%s")
                    values.append(block if floats else map(_fmt, block))
                row = ",".join(specs) + "\n"
                fh.write((row * min(_BLOCK_ROWS, n_rows - start))
                         % tuple(itertools.chain.from_iterable(zip(*values))))
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def _t_grid(t_max: float, steps: int) -> np.ndarray:
    if steps < 0:
        raise ConfigError(f"--t-steps must be >= 0, got {steps}")
    if not 0 < t_max < math.inf:
        raise ConfigError(f"--t-max must be finite and positive, got {t_max}")
    if steps == 0:
        return np.array([])
    return np.linspace(t_max / steps, t_max, steps)


def cmd_owt(cfg: ScenarioConfig, args) -> int:
    """Payoff and utility curves over the waiting time, plus the maximizer."""
    m = cfg.market_params()
    R, L, gamma = cfg.reservation_price, cfg.list_price, cfg.waiting_averseness
    t_max = cfg.t_max if args.t_max is None else args.t_max
    if args.mode == "no-list":
        # math.exp on the refinement's floats, numpy on the scan's array
        objective = lambda T: _ops(T).exp(-gamma * T) * thinned_payoff(T, m, R)
    else:
        objective = lambda T: expected_utility(T, m, R, L, gamma)
    res = optimal_waiting_time(objective, t_max=t_max, tol=cfg.tol)
    grid = _t_grid(t_max, args.t_steps)
    if args.mode == "no-list":
        payoff = payoff_exact = [thinned_payoff(T, m, R) for T in grid]
    else:
        payoff = [listed_payoff(T, m, R, L) for T in grid]
        payoff_exact = [listed_payoff_exact(T, m, R, L) for T in grid]
    utility = [math.exp(-gamma * T) * p for T, p in zip(grid, payoff)]
    flag = " boundary=1" if res.boundary else ""
    summary = f"t_star={_fmt(res.t_star)} utility={_fmt(res.utility_at_t_star)}{flag}"
    out = Path(cfg.out_dir) / "owt_curve.csv"
    _write_csv(out, cfg, ["T", "payoff", "payoff_exact", "utility"],
               [grid, payoff, payoff_exact, utility], extra_comment=summary)
    print(f"{summary} -> {out}")
    return 0


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"axis spec must be NAME:MIN:MAX:STEPS, got {text!r}")
    name, lo, hi, steps = parts
    try:
        return SweepAxis(name, float(lo), float(hi), int(steps))
    except ValueError as e:
        raise ConfigError(f"bad axis spec {text!r}: {e}") from e


def cmd_sweep(cfg: ScenarioConfig, args) -> int:
    """Maximizer surface over two swept parameters."""
    spec = SweepSpec(_parse_axis(args.x), _parse_axis(args.y), cfg.market_params(),
                     cfg.reservation_price, cfg.list_price, cfg.waiting_averseness,
                     t_max=cfg.t_max, tol=cfg.tol)
    result = sweep_owt(spec)
    # row-major over (y, x), as t_star is stored
    xs = np.tile(result.x_values, result.y_values.size)
    ys = np.repeat(result.y_values, result.x_values.size)
    out = Path(cfg.out_dir) / "sweep.csv"
    _write_csv(out, cfg, [result.x_name, result.y_name, "t_star"],
               [xs, ys, result.t_star.ravel()])
    print(f"{result.t_star.size} cells -> {out}")
    return 0


def cmd_evolve(cfg: ScenarioConfig, args) -> int:
    """Multi-owner price evolution: event CSV plus a diffable event stream."""
    horizon = cfg.horizon if args.horizon is None else args.horizon
    log = market_sim.run_evolution(cfg.evolution_config(), horizon, cfg.seed)
    columns = list(zip(*((e.time, e.kind, e.price, e.rate, e.demand, e.owner, e.attempt)
                         for e in log.events)))
    out = Path(cfg.out_dir) / "evolution.csv"
    _write_csv(out, cfg, ["time", "event_type", "price", "rate",
                          "demand_intensity", "owner_index", "attempt_index"], columns)
    stream = Path(cfg.out_dir) / "events.txt"
    try:
        stream.write_text(_stamp(cfg) + "".join(line + "\n" for line in log.to_event_lines()))
    except OSError as e:
        raise ConfigError(f"cannot write {stream}: {e}") from e
    rates = Path(cfg.out_dir) / "rates.csv"
    _write_csv(rates, cfg, ["t", "r"], [log.path.times, log.path.values])
    n_sales = sum(1 for e in log.events if e.kind == "Sale")
    print(f"{len(log.events)} events, {n_sales} sales -> {out}, {stream}, {rates}")
    return 0


def _parse_times(text: str) -> np.ndarray:
    try:
        times = np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError as e:
        raise ConfigError(f"bad --times list {text!r}") from e
    if times.size == 0:
        raise ConfigError(f"--times needs at least one posting time, got {text!r}")
    if not np.all((times >= 0) & (times < math.inf)):
        raise ConfigError(f"--times must be finite and non-negative, got {text!r}")
    return times


def cmd_expected_price(cfg: ScenarioConfig, args) -> int:
    """Mean realized sale price by posting time."""
    times = _parse_times(args.times)
    n_reps = cfg.price_replications if args.n_reps is None else args.n_reps
    points = market_sim.expected_price_curve(cfg.evolution_config(), times, n_reps,
                                             cfg.seed)
    columns = list(zip(*((p.time, p.t_star, p.mean_price, p.stderr, p.n_sales,
                          p.no_sale_fraction) for p in points)))
    out = Path(cfg.out_dir) / "expected_price.csv"
    _write_csv(out, cfg, ["time", "t_star", "mean_price", "stderr",
                          "n_sales", "no_sale_fraction"], columns)
    print(f"{len(points)} posting times -> {out}")
    return 0


def cmd_payoff_path(cfg: ScenarioConfig, args) -> int:
    """Conditional payoff curves along rate paths (single path or MC mean)."""
    ev = cfg.evolution_config()
    zeta = 0.0 if args.mode == "constant" else ev.zeta

    def ctx_factory(path):
        return ev.context(path, ev.initial_reservation, ev.initial_list, zeta)

    n_paths = cfg.path_replications if args.n_paths is None else args.n_paths
    grid = _t_grid(2.0 if args.t_max is None else args.t_max, args.t_steps)
    payoffs, stderrs = path_payoff.expected_payoff(
        ctx_factory, ev.cir, grid, n_paths, cfg.seed, mode=args.mode, dt=ev.dt)
    out = Path(cfg.out_dir) / "payoff_path.csv"
    _write_csv(out, cfg, ["t", "payoff", "stderr"], [grid, payoffs, stderrs])
    print(f"{grid.size} horizons, mode={args.mode}, n_paths={n_paths} -> {out}")
    return 0


def cmd_validate(cfg: ScenarioConfig, args) -> int:
    """Oracle-vs-analytic comparison matrix; exit 1 when a check fails."""
    report = oracle.validate_all(n=cfg.mc_replications if args.n is None else args.n,
                                 seed=cfg.seed, workers=args.workers)
    out = Path(cfg.out_dir) / "validation.csv"
    _write_csv(out, cfg, ["check_name", "analytic", "mc_mean", "mc_stderr",
                          "z", "verdict"], list(zip(*report.to_csv_rows())))
    print(report.format_table())
    print(f"-> {out}")
    return 0 if report.passed else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homesale",
        description="Sale-timing optimization and price-evolution simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="worker threads for validate; other commands run "
                            "serially and ignore it")

    p = sub.add_parser("owt", help="waiting-time payoff/utility curves")
    common(p)
    p.add_argument("--mode", choices=["listed", "no-list"], default="listed")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--t-steps", type=int, default=200)
    p.set_defaults(func=cmd_owt)

    p = sub.add_parser("sweep", help="maximizer surface over two parameters")
    common(p)
    p.add_argument("--x", required=True, help="axis spec NAME:MIN:MAX:STEPS")
    p.add_argument("--y", required=True, help="axis spec NAME:MIN:MAX:STEPS")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evolve", help="multi-owner price evolution log")
    common(p)
    p.add_argument("--horizon", type=float, default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("expected-price", help="mean sale price by posting time")
    common(p)
    p.add_argument("--times", required=True, help="comma-separated posting times")
    p.add_argument("--n-reps", type=int, default=None)
    p.set_defaults(func=cmd_expected_price)

    p = sub.add_parser("payoff-path", help="conditional payoff curves")
    common(p)
    p.add_argument("--mode", choices=["changing", "constant", "none"],
                   default="changing")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--t-steps", type=int, default=40)
    p.add_argument("--n-paths", type=int, default=None)
    p.set_defaults(func=cmd_payoff_path)

    p = sub.add_parser("validate", help="oracle comparison matrix")
    common(p)
    p.add_argument("--n", type=int, default=None, help="replications per check")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        return args.func(cfg, args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
