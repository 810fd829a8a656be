"""Brute-force Monte Carlo estimators of every closed form.

These simulate the model definitions directly -- Poisson offer counts,
uniform arrivals, uniform values, exponential withdrawals.  They share
with the analytic modules only the RNG substream scheme, the offer and
withdrawal laws (UniformOffers.sample, ExponentialWithdrawals.sample),
PathContext.list_at (the list schedule, single on purpose) and
RatePath._check_ends: the rate-path integrals and offer intensities are
recomputed locally.  validate_all runs the whole comparison matrix and
renders a pass/fail table with z-scores.

Every estimator goes through _replicate: one block draw
(stochastic._blocks, shared with the sale engine) of all n replications
over lanes spawned from substream(seed, key), the Poisson counts from
one lane and each field from its own.  Each lane is read in replication
order, so the first n replications of a run are those of a run of n,
at any n.  One simulation may yield several estimates that read the same
draws.  The block draw, the list-crossing settlement (_list_rule) and
the per-replication reducer (_segment) are each written once and shared.

The blocks hold whole replications of at most stochastic._BLOCK entries,
so no array grows with n, lam*T or bound*t.  Values and delays come from
the market's laws (_offers) or the context's (_mc_path), which draws
them for every candidate, so each block is drawn, thinned and reduced
once.  It thins under a bracket squeeze <= lambda <= bound of the
intensity on [0, t] (_bracket), the sale engine's argument re-derived
here: the rate is linear between nodes and the list only falls, so on
the nodes 0 through the first at or after t, the least rate (floored)
and L(t) give the bound, the largest rate and L0 the squeeze.  Candidates under the
squeeze are kept unread.  Reductions read only the offers a mask keeps
(_kept), which is exact because offers are > 0 (p_min > 0) and 0 means
none.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import stochastic
from .closed_form import (MarketParams, auxiliary_payoff, listed_payoff,
                          listed_payoff_exact, thinned_payoff)
from .path_payoff import (ExponentialWithdrawals, PathContext, UniformOffers,
                          conditional_payoff_changing_list,
                          conditional_payoff_changing_list_exact,
                          conditional_payoff_constant_list,
                          conditional_payoff_no_list)
from .stochastic import (RATE_FLOOR, CirParams, DemandParams, RatePath, _blocks,
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


def _replicate(n: int, seed: int, key: str, mean: float, fields,
               block_payoffs) -> list[McEstimate]:
    """Mean and standard error of n replications of each payoff array
    block_payoffs(k, rep, *arrays) returns for a block of the _blocks draw
    of n Poisson(mean) replications with the given fields, over lanes
    spawned from substream(seed, key): the block's k payoffs, one array
    per estimate."""
    if n < 2:
        raise ValueError("n must be >= 2")
    sums, held, done = 0.0, [], 0  # sums: per estimate, of the payoffs and their squares
    for block in _blocks(substream(seed, key).spawn, mean, n, fields):
        held.append(block_payoffs(*block))
        done += block[0]
        # reduce once per count piece of _BLOCK replications, which no
        # block straddles: few numpy calls, and memory bounded by a piece
        if done % stochastic._BLOCK == 0 or done == n:
            sums = sums + np.array([(x.sum(), (x * x).sum())
                                    for x in map(np.concatenate, zip(*held))])
            held = []
    ests = []
    for total, total_sq in sums.tolist():
        mean = total / n
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
        ests.append(McEstimate(mean, math.sqrt(var / n), n))
    return ests


def _segment(ufunc: np.ufunc, vals: np.ndarray, rep: np.ndarray, k: int,
             empty: float) -> np.ndarray:
    """Per-replication minimum or maximum (ufunc) of vals, entry i
    belonging to replication rep[i] of k; `empty` for replications
    without entries."""
    out = np.full(k, empty)
    ufunc.at(out, rep, vals)
    return out


def _kept(mask: np.ndarray, rep: np.ndarray):
    """Flat indices of the entries `mask` keeps, and their replications."""
    idx = np.flatnonzero(mask)
    return idx, rep.take(idx)


def _offers(m: MarketParams, T: float) -> tuple:
    """The fields of an offer on [0, T], drawn Poisson(lam*T) times a
    replication: uniform arrival and value, Exponential(mu) withdrawal
    delay (none when mu = 0)."""
    return (lambda gen, size: gen.random(size) * T,
            UniformOffers(m.p_min, m.p_max).sample, ExponentialWithdrawals(m.mu).sample)


def _list_rule(rep, k, arrival, value, above, standing, disc_at, disc_end):
    """Payoff per replication under a public list: the first offer in
    time at or above the list (`above`) sells at its arrival, discounted
    by disc_at; otherwise the best `standing` offer sells at the end,
    discounted by disc_end; otherwise zero."""
    idx, rep_above = _kept(above, rep)
    first = arrival.take(idx)
    t_first = _segment(np.minimum, first, rep_above, k, np.inf)
    crossed = np.isfinite(t_first)
    win, rep_win = _kept(first == t_first.take(rep_above), rep_above)
    win_value = _segment(np.maximum, value.take(idx.take(win)), rep_win, k, 0.0)
    idx, rep_standing = _kept(standing, rep)
    fallback = _segment(np.maximum, value.take(idx), rep_standing, k, 0.0)
    return np.where(crossed, disc_at(np.where(crossed, t_first, 0.0)) * win_value,
                    disc_end * fallback)


def _check_inputs(T: float, **prices) -> None:
    """T must be finite and positive, and every price finite."""
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    for name, price in prices.items():
        if not math.isfinite(price):
            raise ValueError(f"{name} must be finite, got {price}")


def mc_auxiliary_payoff(T: float, m: MarketParams, n: int, seed: int,
                        reservation: float = None) -> McEstimate:
    """Simulate the waiting-only model: best surviving offer at T.

    Per replication: N ~ Poisson(lam*T) offers, arrivals uniform on
    [0, T], values uniform on (p_min, p_max), withdrawal delays
    Exponential(mu); the payoff is exp(-r*T) times the best value whose
    delay outlasts T - arrival (and clears `reservation`, if given), or
    zero when none survive.  T must be finite and positive and the
    reservation finite; ValueError otherwise.  The replications are drawn
    over lanes spawned from substream(seed, "mc-aux"); mc_listed_payoff
    reads "mc-listed" and mc_path_payoff "mc-path".
    """
    resv = m.p_min if reservation is None else reservation
    return _mc_auxiliary(T, m, n, seed, (resv,))[0]


def _mc_auxiliary(T: float, m: MarketParams, n: int, seed: int,
                  reservations: tuple, key: str = "mc-aux") -> list[McEstimate]:
    """mc_auxiliary_payoff at each reservation, all read from one
    simulation of the offers under the stream key `key`."""
    for resv in reservations:
        _check_inputs(T, reservation=resv)
    disc = math.exp(-m.r * T)

    def block(k, rep, arrival, value, delay):
        idx, rep = _kept(delay >= T - arrival, rep)
        best = _segment(np.maximum, value.take(idx), rep, k, 0.0)
        return [disc * np.where(best >= resv, best, 0.0) for resv in reservations]

    return _replicate(n, seed, key, m.lam * T, _offers(m, T), block)


def mc_listed_payoff(T: float, m: MarketParams, R: float, L: float,
                     n: int, seed: int) -> McEstimate:
    """Simulate the public-list model.

    The first offer in time whose value is at or above L sells
    immediately, discounted to its arrival; otherwise the best surviving
    value at or above R sells at T; otherwise the payoff is zero.  T must
    be finite and positive, R and L finite with R <= L; ValueError
    otherwise.
    """
    return _mc_listed(T, m, R, L, n, seed)


def _mc_listed(T: float, m: MarketParams, R: float, L: float, n: int,
               seed: int, key: str = "mc-listed") -> McEstimate:
    """mc_listed_payoff under the stream key `key`."""
    _check_inputs(T, R=R, L=L)
    if R > L:
        raise ValueError(f"need R <= L, got R={R}, L={L}")
    disc_T = math.exp(-m.r * T)

    def block(k, rep, arrival, value, delay):
        above = value >= L
        standing = (delay >= T - arrival) & (value >= R) & ~above
        return [_list_rule(rep, k, arrival, value, above, standing,
                           lambda s: np.exp(-m.r * s), disc_T)]

    return _replicate(n, seed, key, m.lam * T, _offers(m, T), block)[0]


def _path_tools(ctx: PathContext):
    """Local intensity and discount machinery, independent of the
    analytic modules: straight from the context's raw fields.  The
    intensity takes the list prices at its times from the caller."""
    times, rates = ctx.path.times, ctx.path.values

    def intensity(a, lists):
        r = np.maximum(np.interp(a, times, rates), RATE_FLOOR)
        return ctx.demand.k1 / r + ctx.demand.k2 / lists

    cum = np.concatenate(([0.0], np.cumsum((rates[1:] + rates[:-1]) / 2.0 * ctx.path.dt)))

    def cum_rate(a):
        return np.interp(a, times, cum)

    return intensity, cum_rate


def _bracket(ctx: PathContext, t: float) -> tuple[float, float]:
    """(squeeze, bound) around the intensity on [0, t], read from the
    nodes 0 through the first at or after t (module docstring)."""
    rates = ctx.path.values[:int(np.searchsorted(ctx.path.times, t)) + 1]
    k1, k2 = ctx.demand.k1, ctx.demand.k2
    return ((k1 / max(float(rates.max()), RATE_FLOOR) + k2 / ctx.list_price) * (1.0 - 1e-9),
            (k1 / max(float(rates.min()), RATE_FLOOR) + k2 / float(ctx.list_at(t))) * (1.0 + 1e-6))


def mc_path_payoff(ctx: PathContext, t: float, mode: str, n: int,
                   seed: int) -> McEstimate:
    """Simulate the path-payoff definition on a fixed (deterministic) path.

    Offer arrivals are drawn by thinning (Lewis & Shedler 1979) between
    k1/max(r_hi, RATE_FLOOR) + k2/L0 <= intensity <= k1/max(r_lo,
    RATE_FLOOR) + k2/L(t), r_lo and r_hi the least and largest rate on the
    nodes 0 through the first at or after t.  Values and withdrawals
    come from the context's distributions.  mode "changing"/"constant"
    plays the list-crossing rule against the context's own list, flat
    only at zeta = 0; mode "none" keeps only the end-of-window auction.
    t must lie in (0, horizon of the path]; ValueError otherwise.
    """
    return _mc_path(ctx, t, (mode,), n, seed)[0]


def _mc_path(ctx: PathContext, t: float, modes: tuple, n: int,
             seed: int, key: str = "mc-path") -> list[McEstimate]:
    """mc_path_payoff in each mode, all read from one thinned stream
    under the stream key `key`."""
    for mode in modes:
        if mode not in ("changing", "constant", "none"):
            raise ValueError(f"unknown mode {mode!r}")
    if not (t > 0):
        raise ValueError(f"t must be positive, got {t}")
    ctx.path._check_ends(0.0, t)
    intensity, cum_rate = _path_tools(ctx)
    squeeze, bound = _bracket(ctx, t)
    disc_t = math.exp(-float(cum_rate(t)))

    # per candidate, each from its own lane: time, acceptance uniform, value, delay
    fields = (lambda gen, size: gen.random(size) * t, lambda gen, size: gen.random(size) * bound,
              ctx.offers.sample, ctx.withdrawals.sample)

    def block(k, rep, a, u, value, delay):
        keep, rest = u < squeeze, np.flatnonzero(u >= squeeze)
        keep[rest] = u[rest] < intensity(a[rest], ctx.list_at(a[rest]))
        idx, rep = _kept(keep, rep)
        a, value = a.take(idx), value.take(idx)
        alive = (value >= ctx.reservation) & (delay.take(idx) >= t - a)
        above = value >= ctx.list_at(a)  # mode "none" has no list to be above
        return [_list_rule(rep, k, a, value, hit, alive & ~hit,
                           lambda s: np.exp(-cum_rate(s)), disc_t)
                for hit in (above & (mode != "none") for mode in modes)]

    return _replicate(n, seed, key, bound * t, fields, block)


@dataclass(frozen=True)
class ValidationRow:
    name: str
    analytic: float
    mc_mean: float
    mc_stderr: float
    z: float
    verdict: str    # "pass" | "FAIL" for a check, "report" for an informational gap
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
        n_checks = sum(1 for r in self.rows if r.verdict != "report")
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
    return ValidationRow(name, analytic, est.mean, est.stderr, z, verdict, low_power)


def validate_all(n: int = 1_000_000, seed: int = 20240817,
                 t_values: tuple = (0.25, 0.5, 1.0, 2.0, 5.0),
                 lam_values: tuple = (1.0, 2.0, 5.0, 8.0, 12.0),
                 path_t_values: tuple = (0.5, 1.0, 2.0),
                 workers: int = 1) -> ValidationReport:
    """Full oracle-vs-analytic comparison matrix.

    Exact formulas (waiting-only, thinned, exact listed, exact
    changing-list, constant-list and no-list conditionals) are pass/fail
    checks at the module's sigma band; the constant-list conditional is
    exact for any flat list.  The two formulas that are analytic
    approximations by construction -- the plain listed payoff and the
    published changing-list conditional -- are reported with their
    signed gaps instead of a verdict, plus a derived check that the
    listed-payoff gap keeps one sign across the whole grid.

    Rows share draws, so their misses are not independent 3-sigma
    events: the `aux` and `thinned` rows of a (T, lam) read one offer
    draw, and the `path-changing-gap`, `path-changing-exact` and
    `path-no-list` rows of a t one thinned stream.  Each simulation is
    keyed by the label of its first row, so no two simulations share a
    stream (a public estimator reads one fixed key).  The jobs are the
    simulations, one per (T, lam) and one per path t, run on at most
    `workers` threads; each reads only its substreams, so the rows do not
    depend on the worker count, and holds one block of draws at a time,
    so its memory grows with neither n, lam*T nor t.  One pass then
    builds the rows, the gap-sign row from the listed rows; an empty grid
    skips its rows.
    """
    R, L = 140.0, 180.0
    cells = [(T, lam, MarketParams(lam, 5.0, 0.1, 100.0, 200.0))
             for T in t_values for lam in lam_values]
    path = sigma0_table2_path(max(path_t_values, default=0.0) + 0.1)
    ctx_changing = table2_context(path, constant_list=False)
    ctx_constant = table2_context(path, constant_list=True)

    def simulate_cell(T, lam, m):
        # aux, thinned, listed
        return (*_mc_auxiliary(T, m, n, seed, (m.p_min, R), f"aux T={T} lam={lam}"),
                _mc_listed(T, m, R, L, n, seed, f"listed-exact T={T} lam={lam}"))

    def simulate_path(t):
        # changing, none, constant
        return (*_mc_path(ctx_changing, t, ("changing", "none"), n, seed,
                          f"path-changing-exact t={t}"),
                *_mc_path(ctx_constant, t, ("constant",), n, seed, f"path-constant t={t}"))

    jobs = ([(simulate_cell, T, lam, m) for T, lam, m in cells]
            + [(simulate_path, t) for t in path_t_values])
    with ThreadPoolExecutor(max_workers=min(workers, max(len(jobs), 1))) as pool:
        ests = list(pool.map(lambda job: job[0](*job[1:]), jobs))

    rows = [_make_row(f"aux T={T} lam={lam}", auxiliary_payoff(T, m), est[0], "check")
            for (T, lam, m), est in zip(cells, ests)]
    rows += [_make_row(f"thinned T={T} lam={lam}", thinned_payoff(T, m, R), est[1], "check")
             for (T, lam, m), est in zip(cells, ests)]
    gaps = []
    for (T, lam, m), (_, _, est_listed) in zip(cells, ests):
        exact, plain = listed_payoff_exact(T, m, R, L), listed_payoff(T, m, R, L)
        gaps.append(plain - exact)
        rows += [_make_row(f"listed-exact T={T} lam={lam}", exact, est_listed, "check"),
                 _make_row(f"listed-gap T={T} lam={lam}", plain, est_listed, "gap")]
    if gaps:
        # Sign constancy of the listed-payoff truncation gap, judged on
        # the analytic difference (the MC gap drowns in noise where the
        # bias is tiny).
        constant_sign = all(g < 0 for g in gaps) or all(g > 0 for g in gaps)
        rows.append(ValidationRow("listed-gap-sign-constant", max(gaps), math.nan,
                                  math.nan, math.nan,
                                  "pass" if constant_sign else "FAIL", False))
    for t, (est_changing, est_none, est_constant) in zip(path_t_values, ests[len(cells):]):
        # the exact changing-list row is judged against the same
        # simulation as its gap row
        rows += [_make_row(f"path-changing-gap t={t}",
                           conditional_payoff_changing_list(ctx_changing, t),
                           est_changing, "gap"),
                 _make_row(f"path-changing-exact t={t}",
                           conditional_payoff_changing_list_exact(ctx_changing, t),
                           est_changing, "check"),
                 _make_row(f"path-constant t={t}",
                           conditional_payoff_constant_list(ctx_constant, t),
                           est_constant, "check"),
                 _make_row(f"path-no-list t={t}",
                           conditional_payoff_no_list(ctx_changing, t), est_none, "check")]
    return ValidationReport(rows, n)
