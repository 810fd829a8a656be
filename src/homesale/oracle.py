"""Brute-force Monte Carlo estimators of every closed form.

These simulate the model definitions directly -- Poisson offer counts,
uniform arrivals, uniform values, exponential withdrawals -- and share
no numerical code with the analytic modules beyond the RNG substream
scheme.  In particular the rate-path integrals and offer intensities
are recomputed locally.  validate_all runs the whole comparison matrix
and renders a pass/fail table with z-scores.

Every estimator goes through _replicate: replications are drawn in
chunks of at most _CHUNK, chunk i from substream(seed, key, i), so
growing a run never perturbs the replications already drawn.  The
homogeneous offer draw (_offers), the list-crossing settlement
(_list_rule) and the per-replication reducer (_segment) are each
written once and shared by the estimators.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closed_form import (MarketParams, auxiliary_payoff, listed_payoff,
                          listed_payoff_exact, thinned_payoff)
from .path_payoff import (ExponentialWithdrawals, PathContext, UniformOffers,
                          conditional_payoff_changing_list,
                          conditional_payoff_changing_list_exact,
                          conditional_payoff_constant_list,
                          conditional_payoff_no_list)
from .stochastic import (RATE_FLOOR, CirParams, DemandParams, RatePath,
                         simulate_cir, substream)

__all__ = [
    "McEstimate",
    "mc_auxiliary_payoff",
    "mc_listed_payoff",
    "mc_path_payoff",
    "ValidationRow",
    "ValidationReport",
    "validate_all",
]

_CHUNK = 1 << 17

# A check row passes when its z-score is within this many standard errors.
_TOLERANCE_SIGMAS = 3.0

# A row is too noisy to mean much when its standard error exceeds this
# fraction of the analytic value.
_LOW_POWER_FRACTION = 0.01


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int

    def z_against(self, analytic: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if analytic == self.mean else math.inf
        return (analytic - self.mean) / self.stderr


class _Accumulator:
    def __init__(self):
        self.total = 0.0
        self.total_sq = 0.0
        self.n = 0

    def add(self, x: np.ndarray) -> None:
        self.total += float(x.sum())
        self.total_sq += float((x * x).sum())
        self.n += x.size

    def estimate(self) -> McEstimate:
        mean = self.total / self.n
        var = max(self.total_sq - self.n * mean * mean, 0.0) / (self.n - 1)
        return McEstimate(mean, math.sqrt(var / self.n), self.n)


def _replicate(n: int, seed: int, key: str, chunk_payoff) -> McEstimate:
    """Mean and standard error of n replications of chunk_payoff(rng, k),
    which returns the k payoffs of one chunk drawn from rng."""
    if n < 2:
        raise ValueError("n must be >= 2")
    acc = _Accumulator()
    for i, done in enumerate(range(0, n, _CHUNK)):
        acc.add(chunk_payoff(substream(seed, key, i), min(_CHUNK, n - done)))
    return acc.estimate()


def _segment(ufunc: np.ufunc, vals: np.ndarray, counts: np.ndarray,
             empty: float) -> np.ndarray:
    """Per-replication ufunc reduction of a flat array split by counts;
    `empty` for replications without entries."""
    out = np.full(counts.size, empty)
    if vals.size == 0:
        return out
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    valid = counts > 0
    out[valid] = ufunc.reduceat(vals, starts[valid])
    return out


def _offers(rng: np.random.Generator, k: int, m: MarketParams, T: float):
    """Offers of k replications on [0, T]: Poisson(lam*T) counts, then
    uniform arrivals, uniform values and Exponential(mu) withdrawal
    delays (never withdrawn when mu = 0), flat in replication order."""
    counts = rng.poisson(m.lam * T, k)
    total = int(counts.sum())
    arrival = rng.uniform(0.0, T, total)
    value = rng.uniform(m.p_min, m.p_max, total)
    delay = (rng.exponential(1.0 / m.mu, total) if m.mu > 0
             else np.full(total, np.inf))
    return counts, arrival, value, delay


def _list_rule(counts, arrival, value, above, standing, disc_at, disc_end):
    """Payoff per replication under a public list: the first offer in
    time at or above the list (`above`) sells at its arrival, discounted
    by disc_at; otherwise the best `standing` offer sells at the end,
    discounted by disc_end; otherwise zero."""
    t_first = _segment(np.minimum, np.where(above, arrival, np.inf), counts, np.inf)
    crossed = np.isfinite(t_first)
    winner = above & (arrival == np.repeat(t_first, counts))
    win_value = _segment(np.maximum, np.where(winner, value, 0.0), counts, 0.0)
    fallback = _segment(np.maximum, np.where(standing, value, 0.0), counts, 0.0)
    return np.where(crossed, disc_at(np.where(crossed, t_first, 0.0)) * win_value,
                    disc_end * fallback)


def mc_auxiliary_payoff(T: float, m: MarketParams, n: int, seed: int,
                        reservation: float = None) -> McEstimate:
    """Simulate the waiting-only model: best surviving offer at T.

    Per replication: N ~ Poisson(lam*T) offers, arrivals uniform on
    [0, T], values uniform on (p_min, p_max), withdrawal delays
    Exponential(mu); the payoff is exp(-r*T) times the best value whose
    delay outlasts T - arrival (and clears `reservation`, if given), or
    zero when none survive.
    """
    resv = m.p_min if reservation is None else reservation
    disc = math.exp(-m.r * T)

    def chunk(rng, k):
        counts, arrival, value, delay = _offers(rng, k, m, T)
        alive = (delay >= T - arrival) & (value >= resv)
        return disc * _segment(np.maximum, np.where(alive, value, 0.0), counts, 0.0)

    return _replicate(n, seed, "mc-aux", chunk)


def mc_listed_payoff(T: float, m: MarketParams, R: float, L: float,
                     n: int, seed: int) -> McEstimate:
    """Simulate the public-list model.

    The first offer in time whose value is at or above L sells
    immediately, discounted to its arrival; otherwise the best surviving
    value at or above R sells at T; otherwise the payoff is zero.
    """
    disc_T = math.exp(-m.r * T)

    def chunk(rng, k):
        counts, arrival, value, delay = _offers(rng, k, m, T)
        above = value >= L
        standing = (delay >= T - arrival) & (value >= R) & ~above
        return _list_rule(counts, arrival, value, above, standing,
                          lambda s: np.exp(-m.r * s), disc_T)

    return _replicate(n, seed, "mc-listed", chunk)


def _path_tools(ctx: PathContext):
    """Local intensity and discount machinery, independent of the
    analytic modules: straight from the context's raw fields."""
    path = ctx.path
    times = path.times
    rates = path.values

    def intensity(a):
        r = np.maximum(np.interp(a, times, rates), RATE_FLOOR)
        return ctx.demand.k1 / r + ctx.demand.k2 / ctx.list_at(a)

    mids = (rates[1:] + rates[:-1]) / 2.0 * path.dt
    cum = np.concatenate(([0.0], np.cumsum(mids)))

    def cum_rate(a):
        return np.interp(a, times, cum)

    return intensity, cum_rate


def mc_path_payoff(ctx: PathContext, t: float, mode: str, n: int,
                   seed: int) -> McEstimate:
    """Simulate the path-payoff definition on a fixed (deterministic) path.

    Offer arrivals are drawn by thinning a dominating homogeneous
    stream under the context's demand intensity; values and withdrawals
    come from the context's distributions.  mode "changing"/"constant"
    plays the list-crossing rule against the context's list price, mode
    "none" keeps only the end-of-window auction.
    """
    if mode not in ("changing", "constant", "none"):
        raise ValueError(f"unknown mode {mode!r}")
    intensity, cum_rate = _path_tools(ctx)
    grid = np.unique(np.concatenate((ctx.path.times[ctx.path.times <= t], [t])))
    bound = float(np.max(intensity(grid))) * (1.0 + 1e-6)
    disc_t = math.exp(-float(cum_rate(t)))
    R = ctx.reservation

    def chunk(rng, k):
        n_cand = rng.poisson(bound * t, k)
        total = int(n_cand.sum())
        rep_all = np.repeat(np.arange(k), n_cand)
        a_all = rng.uniform(0.0, t, total)
        keep = rng.uniform(0.0, 1.0, total) * bound < intensity(a_all)
        a = a_all[keep]
        counts = np.bincount(rep_all[keep], minlength=k)
        value = np.asarray(ctx.offers.sample(rng, a.size), dtype=float)
        delay = np.asarray(ctx.withdrawals.sample(rng, a.size), dtype=float)
        alive = (value >= R) & (delay >= t - a)
        if mode == "none":
            return disc_t * _segment(np.maximum, np.where(alive, value, 0.0), counts, 0.0)
        above = value >= ctx.list_at(a)
        return _list_rule(counts, a, value, above, alive & ~above,
                          lambda s: np.exp(-cum_rate(s)), disc_t)

    return _replicate(n, seed, "mc-path", chunk)


@dataclass(frozen=True)
class ValidationRow:
    name: str
    analytic: float
    mc_mean: float
    mc_stderr: float
    z: float
    kind: str       # "check" gets a pass/fail verdict, "gap" is informational
    verdict: str    # "pass" | "FAIL" | "report"
    low_power: bool


@dataclass
class ValidationReport:
    rows: list[ValidationRow]
    n: int

    @property
    def failures(self) -> list[ValidationRow]:
        return [r for r in self.rows if r.verdict == "FAIL"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def format_table(self) -> str:
        header = (f"{'check':<34} {'analytic':>12} {'mc_mean':>12} "
                  f"{'mc_stderr':>10} {'z':>8}  verdict")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            flag = " (low power)" if r.low_power else ""
            lines.append(
                f"{r.name:<34} {r.analytic:>12.4f} {r.mc_mean:>12.4f} "
                f"{r.mc_stderr:>10.4f} {r.z:>8.2f}  {r.verdict}{flag}")
        lines.append("-" * len(header))
        n_checks = sum(1 for r in self.rows if r.kind == "check")
        lines.append(f"{n_checks - len(self.failures)}/{n_checks} checks passed "
                     f"at {_TOLERANCE_SIGMAS} sigma, n={self.n}")
        return "\n".join(lines)

    def to_csv_rows(self) -> list[tuple]:
        return [(r.name, r.analytic, r.mc_mean, r.mc_stderr, r.z, r.verdict)
                for r in self.rows]


def sigma0_table2_path(horizon: float) -> RatePath:
    """Deterministic (zero-volatility) rate path at the simulation defaults."""
    return simulate_cir(CirParams(0.25, 0.1, 0.0, 0.09), horizon, 1.0 / 252.0, seed=0)


def table2_context(path: RatePath, constant_list: bool = False,
                   initial_list: float = 200.0) -> PathContext:
    """Path context at the simulation defaults: uniform offers on
    (100, 200), Exponential(10) withdrawals, reservation 140, and a list
    decaying at rate 1 or constant."""
    return PathContext(path=path, list_price=initial_list,
                       zeta=0.0 if constant_list else 1.0,
                       offers=UniformOffers(100.0, 200.0),
                       withdrawals=ExponentialWithdrawals(10.0),
                       reservation=140.0, demand=DemandParams(0.5, 1000.0))


def _make_row(name: str, analytic: float, est: McEstimate, kind: str) -> ValidationRow:
    z = est.z_against(analytic)
    low_power = est.stderr > _LOW_POWER_FRACTION * max(abs(analytic), 1.0)
    if kind == "gap":
        verdict = "report"
    else:
        verdict = "pass" if abs(z) <= _TOLERANCE_SIGMAS else "FAIL"
    return ValidationRow(name, analytic, est.mean, est.stderr, z, kind,
                         verdict, low_power)


def validate_all(n: int = 1_000_000, seed: int = 20240817,
                 t_values: tuple = (0.25, 0.5, 1.0, 2.0, 5.0),
                 lam_values: tuple = (1.0, 2.0, 5.0, 8.0, 12.0),
                 path_t_values: tuple = (0.5, 1.0, 2.0),
                 include_paths: bool = True,
                 workers: int = 1) -> ValidationReport:
    """Full oracle-vs-analytic comparison matrix.

    Exact formulas (waiting-only, thinned, exact listed, exact
    changing-list, constant-list and no-list conditionals) are pass/fail
    checks at the module's sigma band; the constant-list conditional is
    exact for any flat list.  The two formulas that are analytic
    approximations by construction -- the plain listed payoff and the
    published changing-list conditional -- are reported with their
    signed gaps instead of a verdict, plus a derived check that the
    listed-payoff gap keeps one sign across the whole grid.  Each exact
    changing-list row is judged against the same simulation as its gap
    row.  Every row comes from one job list run on `workers` threads;
    each job draws from its own substreams, so the rows do not depend on
    the worker count.
    """
    R, L = 140.0, 180.0

    def market(lam):
        return MarketParams(lam, 5.0, 0.1, 100.0, 200.0)

    def aux(T, lam):
        m = market(lam)
        return [_make_row(f"aux T={T} lam={lam}", auxiliary_payoff(T, m),
                          mc_auxiliary_payoff(T, m, n, seed), "check")]

    def thinned(T, lam):
        m = market(lam)
        return [_make_row(f"thinned T={T} lam={lam}", thinned_payoff(T, m, R),
                          mc_auxiliary_payoff(T, m, n, seed, reservation=R), "check")]

    def listed(T, lam):
        m = market(lam)
        est = mc_listed_payoff(T, m, R, L, n, seed)
        return [_make_row(f"listed-exact T={T} lam={lam}",
                          listed_payoff_exact(T, m, R, L), est, "check"),
                _make_row(f"listed-gap T={T} lam={lam}",
                          listed_payoff(T, m, R, L), est, "gap")]

    def gap_sign():
        # Sign constancy of the listed-payoff truncation gap, judged on
        # the analytic difference (the MC gap drowns in noise where the
        # bias is tiny).
        gaps = [listed_payoff(T, m, R, L) - listed_payoff_exact(T, m, R, L)
                for T in t_values for m in map(market, lam_values)]
        constant_sign = all(g < 0 for g in gaps) or all(g > 0 for g in gaps)
        return [ValidationRow("listed-gap-sign-constant", max(gaps), math.nan,
                              math.nan, math.nan, "check",
                              "pass" if constant_sign else "FAIL", False)]

    def path_changing(t):
        est = mc_path_payoff(ctx_changing, t, "changing", n, seed)
        return [_make_row(f"path-changing-gap t={t}",
                          conditional_payoff_changing_list(ctx_changing, t), est, "gap"),
                _make_row(f"path-changing-exact t={t}",
                          conditional_payoff_changing_list_exact(ctx_changing, t),
                          est, "check")]

    def path_constant(t):
        return [_make_row(f"path-constant t={t}",
                          conditional_payoff_constant_list(ctx_constant, t),
                          mc_path_payoff(ctx_constant, t, "constant", n, seed), "check")]

    def path_no_list(t):
        return [_make_row(f"path-no-list t={t}",
                          conditional_payoff_no_list(ctx_changing, t),
                          mc_path_payoff(ctx_changing, t, "none", n, seed), "check")]

    jobs = [(job, T, lam) for job in (aux, thinned, listed)
            for T in t_values for lam in lam_values]
    jobs.append((gap_sign,))
    if include_paths:
        path = sigma0_table2_path(max(path_t_values) + 0.1)
        ctx_changing = table2_context(path, constant_list=False)
        ctx_constant = table2_context(path, constant_list=True)
        jobs += [(job, t) for t in path_t_values
                 for job in (path_changing, path_constant, path_no_list)]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunks = list(pool.map(lambda job: job[0](*job[1:]), jobs))
    return ValidationReport([row for chunk in chunks for row in chunk], n)
